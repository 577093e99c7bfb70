"""Tests for the public API facade (``repro.api``).

The facade is the one blessed import surface: every name resolves, the
six lifecycle verbs round-trip a real artefact, the deprecated
deep-import verbs (their one-release window spent) are gone, and the
examples import only via the facade.
"""

import ast
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from reference_trainer import tape_scores

import repro
import repro.api as api

REPO_ROOT = Path(__file__).resolve().parent.parent

VERBS = ("fit", "save_checkpoint", "resume", "load_model", "recommend", "serve")


class TestSurface:
    def test_every_exported_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute"):
            api.definitely_not_a_thing

    def test_verbs_reexported_from_repro(self):
        for verb in VERBS:
            assert getattr(repro, verb) is getattr(api, verb)
            assert verb in repro.__all__

    def test_dir_lists_surface(self):
        assert set(VERBS) <= set(dir(api))
        assert "RecommendationService" in dir(api)

    def test_import_repro_api_stays_light(self):
        """``import repro.api`` (which imports the ``repro`` package
        first) loads no trainer: the package's convenience names resolve
        through the lazy facade — and every one of them still does."""
        code = (
            "import sys\n"
            "import repro.api\n"
            "assert 'repro.federated.trainer' not in sys.modules\n"
            "import repro\n"
            "missing = [n for n in repro.__all__ if getattr(repro, n, None) is None]\n"
            "assert not missing, missing\n"
        )
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestExamplesUseFacadeOnly:
    def test_examples_import_only_repro_api(self):
        """Every ``repro`` import in every example goes through the facade.

        Since PR 10 the check itself lives in the lint framework (the
        ``facade-only`` rule); this test runs that rule over the real
        examples so the contract stays enforced at test time too.
        """
        from repro.analysis import lint_source

        offenders = []
        for path in sorted((REPO_ROOT / "examples").glob("*.py")):
            offenders += lint_source(
                path.read_text(),
                logical=f"examples/{path.name}",
                rules=["facade-only"],
            )
        assert not offenders, "\n".join(f.render() for f in offenders)


class TestOneCheckpointDoor:
    def test_one_np_load_and_one_zipfile_import_under_src(self):
        """What a bad checkpoint raises is decided in one module: the
        only ``np.load`` and the only ``import zipfile`` under
        ``src/repro`` live in ``federated/checkpoint.py``."""
        root = REPO_ROOT / "src" / "repro"
        np_loads, zipfile_imports = [], []
        for path in sorted(root.rglob("*.py")):
            where = path.relative_to(root).as_posix()
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "load"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("np", "numpy")
                ):
                    np_loads.append(where)
                elif isinstance(node, ast.Import):
                    zipfile_imports += [
                        where for alias in node.names if alias.name == "zipfile"
                    ]
                elif isinstance(node, ast.ImportFrom) and node.module == "zipfile":
                    zipfile_imports.append(where)
        assert np_loads == ["federated/checkpoint.py"]
        assert zipfile_imports == ["federated/checkpoint.py"]


class TestDeprecationShims:
    @pytest.fixture()
    def trained(self, tiny_dataset, tiny_clients):
        from repro.core import HeteFedRec, HeteFedRecConfig

        config = HeteFedRecConfig(
            dims={"s": 4, "m": 6, "l": 8}, epochs=1, local_epochs=1, lr=0.01,
            seed=0,
        )
        trainer = HeteFedRec(tiny_dataset.num_items, tiny_clients, config)
        trainer.run_epoch(1)
        return trainer

    def test_old_deep_names_are_gone(self):
        """The deprecated deep-import verbs spent their one-release
        window; each checkpoint verb now has one deep name (its
        ``*_impl``) and one public door, and ``load_model`` reads through
        serving's ``load_snapshot``, with no deep name of its own."""
        import repro.federated as federated
        import repro.federated.checkpoint as checkpoint

        for name in ("save_checkpoint", "load_checkpoint", "load_inference_model"):
            assert not hasattr(checkpoint, name), name
            assert not hasattr(federated, name), name
        for name in ("save_checkpoint", "load_checkpoint"):
            assert callable(getattr(checkpoint, name + "_impl"))
        for name in ("load_inference_model_impl", "checkpoint_groups"):
            assert not hasattr(checkpoint, name), name
            assert name not in api.__all__, name
        assert not hasattr(checkpoint, "_deprecated_verb")

    def test_facade_verbs_do_not_warn(self, trained, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            api.save_checkpoint(trained, path)
            model, meta = api.load_model(path, "l")
            api.resume(trained, path)
        assert model.dim == 8 and meta["arch"] == "ncf"


class TestVerbRoundTrip:
    def test_full_lifecycle(self, tiny_dataset, tiny_clients, tmp_path):
        """fit -> save_checkpoint -> resume -> recommend, via verbs only."""
        config = api.HeteFedRecConfig(
            dims={"s": 4, "m": 6, "l": 8}, epochs=1, local_epochs=1, lr=0.01,
            seed=0,
        )
        trainer = api.build_method(
            "hetefedrec", tiny_dataset.num_items, tiny_clients, config
        )
        api.fit(trainer)
        path = str(tmp_path / "ckpt.npz")
        api.save_checkpoint(trainer, path)

        other = api.build_method(
            "hetefedrec", tiny_dataset.num_items, tiny_clients, config
        )
        assert api.resume(other, path) is other
        user = tiny_clients[0].user_id
        assert np.allclose(
            tape_scores(trainer, tiny_clients[0]),
            tape_scores(other, tiny_clients[0]),
        )

        answer = api.recommend(path, user, k=5)
        assert len(answer.items) == 5
        batch = api.recommend(path, [c.user_id for c in tiny_clients[:3]], k=4)
        assert len(batch) == 3 and all(len(a.items) == 4 for a in batch)

        service = api.serve(path, k=5)  # host=None: in-process service
        assert isinstance(service, api.RecommendationService)
        again = api.recommend(service, user, k=5)
        assert np.array_equal(answer.items, again.items)
