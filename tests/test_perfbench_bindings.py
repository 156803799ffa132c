"""The benchmark's traced wrappers bind to names the package still has.

perfbench/layers.py wraps functions where the workloads reach them, some of
them under the name another module imports them as (for example
calibration.term_matrix). Renaming or dropping such a name breaks every
traced benchmark run, so this checks that each binding site resolves, is
wrapped while the patches are entered, and is restored on exit.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_binding_site_is_wrapped_and_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracer

    patches = layers.patches(tracer.Tracer())
    originals = [(owner, attr, _current(owner, attr)) for owner, attr, _, _ in patches.points]
    assert originals
    with patches:
        for owner, attr, original in originals:
            assert _current(owner, attr) is not original, f"{owner.__name__}.{attr} was not wrapped"
    for owner, attr, original in originals:
        assert _current(owner, attr) is original, f"{owner.__name__}.{attr} was not restored"
