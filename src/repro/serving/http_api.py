"""Optional stdlib HTTP front end for the resilient serving stack.

Kept deliberately out of the core's import path: the batching / caching
/ hot-swap / admission machinery in :mod:`repro.serving` is plain python
and fully usable (and tested) without a server; this module only adds a
thin JSON transport over :mod:`http.server` for deployments that want
one — no third-party dependency, started via ``python -m repro serve``.

The server fronts exactly one stack: a
:class:`~repro.serving.resilience.ResilientService` plus the
:class:`~repro.serving.coalescer.RequestCoalescer` that batches into
it.  Handlers parse and validate, make one call, and translate the
outcome through one exception → status table; every admission, deadline
and metering decision lives in the resilient service.

Routes
------
``GET /healthz``
    Liveness + the serving model version, the health state machine's
    verdict (``ok`` / ``degraded`` / ``unhealthy`` / ``draining``; 200
    only for ``ok``), the breaker state and the active degradation-tier
    floor.
``GET /v1/recommend?user=ID[&k=K][&deadline_ms=MS][&priority=P]``
    Top-k answer for one user: admission-controlled, then through the
    request coalescer (a lone request is scored at once; requests that
    arrive while a batch is scored share the next blocked matmul).
    503 + ``Retry-After`` when shed (queue full, budget un-meetable,
    draining), 504 on a deadline overrun (wasted work metered), 404 for
    an unknown user, 400 for a malformed query (missing / non-integer
    ``user``, ``k < 1``, a ``deadline_ms`` that is not a finite
    number > 0).
``GET /v1/stats``
    Service / cache / coalescer / resilience counters.
``POST /v1/swap`` with body ``{"checkpoint": PATH}``
    Zero-downtime hot-swap to a newer checkpoint; 409 for a candidate
    whose content is refused — torn, corrupt or mismatched (quarantined;
    the old model keeps serving), 503 when the swap circuit breaker is
    open, 400 for a file that cannot be opened or a malformed
    request (body not a JSON object, ``checkpoint`` not a string,
    ``Content-Length`` missing, negative or above
    :data:`MAX_BODY_BYTES`).

Every error reply is a JSON object ``{"error": MESSAGE}``; a malformed
request is always answered, never a dropped connection.

Shutdown
--------
SIGTERM / SIGINT trigger a graceful drain: stop admitting (503s), answer
everything already in flight, then close the coalescer and exit 0.  Each
connection also carries a socket timeout so a stalled client cannot pin
a handler thread forever.
"""

from __future__ import annotations

import json
import signal
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.federated.checkpoint import CheckpointMismatchError
from repro.serving.coalescer import RequestCoalescer
from repro.serving.resilience import CircuitOpenError, ResilientService, ShedError
from repro.serving.service import UnknownUserError

#: Largest ``POST`` body the server will read (a swap request is one
#: short JSON object; anything bigger is refused unread).
MAX_BODY_BYTES = 64 * 1024

#: The failures a query answers (anything else is a bug and may crash
#: the handler).  A swap answers the open breaker plus the checkpoint
#: door's two outcomes: content refused, file cannot be opened.
_QUERY_ERRORS = (ShedError, TimeoutError, UnknownUserError, ValueError)
#: Failure → status, first match wins; whatever matches nothing above
#: the last row is the client's mistake.  ``TimeoutError`` covers
#: ``DeadlineExceededError``; ``UnknownUserError`` is a ``KeyError`` and
#: ``CheckpointMismatchError`` a ``ValueError``, so both precede it.
_STATUS_OF = (
    (ShedError, 503),
    (CircuitOpenError, 503),
    (TimeoutError, 504),
    (UnknownUserError, 404),
    (CheckpointMismatchError, 409),
    (Exception, 400),
)

_RECOMMEND_USAGE = (
    "expected ?user=<int>[&k=<int >= 1>][&deadline_ms=<finite float > 0>]"
    "[&priority=<int>]"
)
_SWAP_USAGE = (
    'expected a JSON object body {"checkpoint": PATH} with a Content-Length '
    f"of at most {MAX_BODY_BYTES} bytes"
)


class ServingHandler(BaseHTTPRequestHandler):
    """Request handler bound to the resilient front + coalescer via the
    server."""

    server: "ServingHTTPServer"
    protocol_version = "HTTP/1.1"
    # Headers and body leave as one segment (``_reply`` flushes once);
    # unbuffered, the body waits on the client's delayed ACK.
    wbufsize = -1

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def setup(self) -> None:
        # A stalled client must not pin this handler thread forever:
        # the per-connection socket timeout turns a dead peer into a
        # closed connection instead of a leaked thread.
        self.timeout = self.server.request_timeout_s
        super().setup()

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    def _reply(
        self, status: int, payload: dict, headers: Optional[dict] = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        self.wfile.flush()

    def _error(
        self, status: int, message: str, headers: Optional[dict] = None
    ) -> None:
        self._reply(status, {"error": message}, headers=headers)

    def _fail(self, error: BaseException, prefix: str = "") -> None:
        """Answer one handled exception through the status table."""
        status = next(code for kind, code in _STATUS_OF if isinstance(error, kind))
        retry_after = getattr(error, "retry_after", None)
        self._error(
            status,
            prefix + str(error),
            headers=(
                None if retry_after is None
                else {"Retry-After": f"{max(1, round(retry_after))}"}
            ),
        )

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        if url.path == "/healthz":
            body = self.server.front.healthz()
            if body["status"] == "healthy":
                body["status"] = "ok"  # the liveness contract callers probe
            self._reply(200 if body["status"] == "ok" else 503, body)
        elif url.path == "/v1/recommend":
            with self.server.query_in_flight():
                self._recommend(parse_qs(url.query))
        elif url.path == "/v1/stats":
            stats = dict(self.server.front.stats())
            stats["coalescer"] = self.server.coalescer.stats()
            self._reply(200, stats)
        else:
            self._error(404, f"no route {url.path!r}")

    def _recommend(self, query: dict) -> None:
        try:
            try:
                user_id = int(query["user"][0])
                k = int(query["k"][0]) if "k" in query else None
                deadline_ms = (
                    float(query["deadline_ms"][0]) if "deadline_ms" in query else None
                )
                priority = int(query["priority"][0]) if "priority" in query else 0
            except (KeyError, ValueError) as error:
                raise ValueError(_RECOMMEND_USAGE) from error
            coalescer = self.server.coalescer
            answer = self.server.front.run_admitted(
                user_id,
                lambda remaining: coalescer.submit(user_id, k=k, timeout=remaining),
                deadline_ms=deadline_ms,
                priority=priority,
            )
        except _QUERY_ERRORS as error:
            self._fail(error)
        else:
            self._reply(200, answer.to_json())

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        # A request refused before its body is read cannot share its
        # connection with a next one: "Connection: close" ends it.
        if url.path != "/v1/swap":
            self._error(404, f"no route {url.path!r}", headers={"Connection": "close"})
            return
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            self._error(400, _SWAP_USAGE, headers={"Connection": "close"})
            return
        try:
            payload = json.loads(self.rfile.read(length))
            checkpoint = payload["checkpoint"]
            if not isinstance(checkpoint, str):
                raise TypeError(checkpoint)
        except (ValueError, KeyError, TypeError):
            self._error(400, _SWAP_USAGE)
            return
        try:
            version = self.server.front.swap(checkpoint)
        except (CircuitOpenError, CheckpointMismatchError) as error:
            self._fail(error)
        except OSError as error:
            self._fail(error, prefix="checkpoint unreadable: ")
        else:
            self._reply(200, {"status": "swapped", "model_version": version})


class ServingHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server wired to one resilient front + coalescer.

    ``coalescer`` must batch into ``front`` (that is what keeps the
    degradation ladder on the HTTP path).  After ``shutdown()`` stops
    the accept loop, ``server_close()`` stops admission, waits until
    every query in flight is answered, and only then closes the
    coalescer (an admitted query may be about to enter it).  Handler
    threads are daemons: an idle keep-alive connection never holds the
    drain up.
    """

    daemon_threads = True

    def __init__(
        self,
        front: ResilientService,
        coalescer: RequestCoalescer,
        address: Tuple[str, int] = ("127.0.0.1", 8777),
        verbose: bool = False,
        request_timeout_s: Optional[float] = 30.0,
    ) -> None:
        super().__init__(address, ServingHandler)
        self.front = front
        self.coalescer = coalescer
        self.verbose = verbose
        self.request_timeout_s = request_timeout_s
        self._settled = threading.Condition()
        self._in_flight = 0

    @contextmanager
    def query_in_flight(self):
        """Bracket one ``/v1/recommend`` from parse to flushed reply."""
        with self._settled:
            self._in_flight += 1
        try:
            yield
        finally:
            with self._settled:
                self._in_flight -= 1
                self._settled.notify_all()

    def server_close(self) -> None:  # noqa: D102 - see the class docstring
        # Drain first: a query that brackets in after the wait below saw
        # zero is shed by admission and never reaches the coalescer.
        self.front.drain()
        with self._settled:
            while self._in_flight:
                self._settled.wait()
        super().server_close()
        self.coalescer.close()


class GracefulShutdown:
    """SIGTERM/SIGINT → drain → stop accepting → answer in-flight.

    ``request()`` is the signal handler's body, factored out so tests
    can trigger a drain without delivering a real signal.  Handler
    installation is attempted only from the main thread (the stdlib
    raises :class:`ValueError` elsewhere) and is therefore safe to call
    from embedded/test contexts.
    """

    def __init__(self, server: ServingHTTPServer) -> None:
        self.server = server
        self.requested = threading.Event()

    def install(self) -> bool:
        """Install SIGTERM/SIGINT handlers; False when not possible."""
        try:
            signal.signal(signal.SIGTERM, self._on_signal)
            signal.signal(signal.SIGINT, self._on_signal)
            return True
        except ValueError:  # not the main thread
            return False

    def _on_signal(self, signum, frame) -> None:  # noqa: ANN001
        self.request()

    def request(self) -> None:
        """Begin the drain (idempotent): shed new work, finish the rest."""
        if self.requested.is_set():
            return
        self.requested.set()
        self.server.front.drain()
        # serve_forever() must be stopped from another thread — calling
        # shutdown() from the serving thread deadlocks by design.
        threading.Thread(
            target=self.server.shutdown, name="repro-serving-drain", daemon=True
        ).start()


def run_server(
    front: ResilientService,
    coalescer: RequestCoalescer,
    host: str = "127.0.0.1",
    port: int = 8777,
    verbose: bool = True,
    request_timeout_s: Optional[float] = 30.0,
) -> None:
    """Serve until interrupted (the blocking entry ``repro serve`` uses).

    Returns normally — exit code 0 — after a SIGTERM/SIGINT graceful
    drain: admission stops (new requests shed with 503), every in-flight
    request is answered, and then the sockets and the coalescer close.
    """
    server = ServingHTTPServer(
        front,
        coalescer,
        (host, port),
        verbose=verbose,
        request_timeout_s=request_timeout_s,
    )
    shutdown = GracefulShutdown(server)
    installed = shutdown.install()
    if verbose:
        bound = server.server_address
        print(
            f"serving checkpoint {front.checkpoint_path} "
            f"(model version {front.model_version}, "
            f"{front.stats()['users']} users) on http://{bound[0]}:{bound[1]}"
            + (" [graceful drain armed]" if installed else "")
        )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        shutdown.request()
    finally:
        if not shutdown.requested.is_set():
            server.shutdown()
        server.server_close()  # answers in-flight queries, then closes the coalescer
    if verbose and shutdown.requested.is_set():
        print("drained: in-flight requests answered, exiting 0")
