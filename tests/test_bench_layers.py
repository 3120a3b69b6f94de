"""The benchmark's layer tracing names functions of the package by
(owner, attribute); a renamed function would leave a traced run with an
unknown patch. This reads bench/ and changes nothing there."""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_call_is_bound_on_its_owner(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from fedbench import layers

    missing = [f"{getattr(owner, '__name__', owner)}.{attribute}"
               for owner, attribute, _, _ in layers.PATCHES
               # the tracer patches what the owner binds itself
               if not callable(vars(owner).get(attribute))]
    assert not missing, f"PATCHES names calls the package lacks: {missing}"
    names = {(owner.__name__, attribute) for owner, attribute, _, _
             in layers.PATCHES}
    for call in (("fedfog.ddpg", "forward"), ("fedfog.dqn", "decode_action"),
                 ("DqnAgent", "select"), ("fedfog.env", "rollout_episode")):
        assert call in names
