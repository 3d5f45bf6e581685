"""The benchmark's tracing hooks resolve against the live package.

`perfbench/tracing.PATCHES` names every function a traced benchmark run
(`perfbench/run.py --trace 1`) wraps.  Renaming or removing one of them in
the package fails here instead of breaking traced runs only.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracing_patches_resolve_and_are_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    def lookup(path, attr):
        return getattr(tracing._resolve(path), attr)

    originals = {(path, attr): lookup(path, attr) for path, attr, _, _ in tracing.PATCHES}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for path, attr in originals:
            assert lookup(path, attr) is not originals[(path, attr)], f"{path}.{attr} not wrapped"
    finally:
        tracer.uninstall()
    for (path, attr), original in originals.items():
        assert lookup(path, attr) is original, f"{path}.{attr} not restored"
