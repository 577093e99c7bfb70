"""Rule: hot paths stay O(touched rows) on sparse payloads.

:class:`~repro.federated.payload.SparseRowDelta` made client uploads
O(touched rows) end to end (PR 2); ``dense()`` — and its implicit
``np.asarray``/``__array__`` spelling — is the escape hatch for the few
consumers where dense alignment is inherent.  Every new ``dense()``
call site is a potential O(catalogue) regression on a per-client path,
so this rule flags them all and carries the documented allowlist of
legitimate sites.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List

from repro.analysis.framework import FileContext, Finding, Rule, register
from repro.analysis.rules._shared import call_text, dotted_name

#: Documented dense-alignment sites (logical path → why it is allowed).
DENSE_ALIGNMENT_ALLOWLIST: Dict[str, str] = {
    "repro/federated/payload.py":
        "defines SparseRowDelta and its documented escape hatches "
        "(dense(), __array__, the ClientUpdate constructor's coercion)",
    "repro/compression/client.py":
        "CompressedTensor.dense() reconstructs the codec's value block, "
        "which is already the O(touched rows) sparse block",
    "repro/compression/codecs.py":
        "codec round-trip check materialises its own compressed block",
    "repro/robustness/defenses.py":
        "median/trimmed-mean/Krum need aligned dense client stacks "
        "(documented dense-alignment consumer in payload.py)",
}


@register
class SparseContractRule(Rule):
    name = "sparse-contract"
    description = (
        "dense()/np.asarray materialisation of SparseRowDelta payloads is "
        "flagged outside the documented dense-alignment allowlist"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not ctx.logical.startswith("repro/"):
            return []
        if ctx.logical in DENSE_ALIGNMENT_ALLOWLIST:
            return []
        out: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if isinstance(node.func, ast.Attribute) and node.func.attr == "dense":
                out.append(self.finding(
                    ctx, node,
                    f"{call_text(node)} materialises the full table; hot "
                    "paths must stay O(touched rows) on .rows/.values "
                    "(allowlist the file if dense alignment is inherent)",
                ))
            elif name in ("np.asarray", "numpy.asarray", "np.array", "numpy.array"):
                if not node.args:
                    continue
                arg_text = call_text(node.args[0])
                lowered = arg_text.lower()
                if "delta" not in lowered and "update" not in lowered:
                    continue
                out.append(self.finding(
                    ctx, node,
                    f"np.asarray({arg_text}) densifies a sparse payload "
                    "implicitly (SparseRowDelta.__array__); consume "
                    ".rows/.values or allowlist the file",
                ))
        return out
