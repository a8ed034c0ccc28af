from repro.obs import metrics as obs_metrics

from bench import layers


def _bindings():
    return [
        vars(layers._resolve(owner))[attr]
        for owner, attributes in layers.ENTRY_POINTS.items()
        for attr in attributes
    ]


def test_a_traced_section_leaves_every_entry_point_and_the_registry_as_found():
    from repro.service.workers import ThresholdService

    before = _bindings()
    sign = vars(ThresholdService)["sign"]
    registry = obs_metrics.registry()
    with layers.traced() as trace:
        assert obs_metrics.registry() is trace.registry
        assert all(now is not was for now, was in zip(_bindings(), before))
        assert vars(ThresholdService)["sign"] is not sign
    assert all(now is was for now, was in zip(_bindings(), before))
    assert vars(ThresholdService)["sign"] is sign
    assert obs_metrics.registry() is registry


def test_entry_points_are_restored_when_the_traced_section_raises():
    before = _bindings()
    try:
        with layers.traced():
            raise RuntimeError("workload failed")
    except RuntimeError:
        pass
    assert all(now is was for now, was in zip(_bindings(), before))


def test_every_span_name_belongs_to_one_layer():
    for attributes in layers.ENTRY_POINTS.values():
        for name in attributes.values():
            assert layers.layer_of(name) in layers.LAYERS
    assert layers.layer_of("net.wire.decode") == "net.wire"
    assert layers.layer_of("net.transport") == "net.transport"
    assert layers.layer_of(layers.SIGN_HIT) == "service.workers"
