import asyncio
import threading

from bench.tracing import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_is_duration_minus_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.advance(2.0)

    leaf = tracer.wrap(leaf, "crypto.leaf")

    def middle():
        clock.advance(1.0)
        leaf()
        leaf()

    middle = tracer.wrap(middle, "dkg.middle")

    def outer():
        clock.advance(0.5)
        middle()
        clock.advance(0.25)

    outer = tracer.wrap(outer, "runtime.outer")
    clock.advance(10.0)
    outer()
    main, other = tracer.totals([(0.0, 100.0)])
    assert other == {}
    assert main["crypto.leaf"].calls == 2
    assert main["crypto.leaf"].busy_s == main["crypto.leaf"].self_s == 4.0
    assert main["dkg.middle"].busy_s == 5.0
    assert main["dkg.middle"].self_s == 1.0
    assert main["runtime.outer"].busy_s == 5.75
    assert main["runtime.outer"].self_s == 0.75
    # Self times of a tree add up to the root's duration: the budget.
    assert sum(entry.self_s for entry in main.values()) == 5.75


def test_a_nested_span_of_the_same_or_an_absorbing_name_is_not_recorded():
    clock = FakeClock()
    tracer = Tracer(clock)

    def encode():
        clock.advance(1.0)

    encode = tracer.wrap(encode, "net.wire.encode", absorbed_by=("net.wire.size",))

    def size():
        encode()

    size = tracer.wrap(size, "net.wire.size")

    def step(depth):
        clock.advance(1.0)
        if depth:
            step(depth - 1)

    step = tracer.wrap(step, "dkg.step")
    clock.advance(1.0)
    size()
    encode()
    step(2)
    main, _ = tracer.totals([(0.0, 100.0)])
    assert main["net.wire.size"].busy_s == main["net.wire.size"].self_s == 1.0
    assert main["net.wire.encode"].calls == 1
    assert main["dkg.step"].calls == 1
    assert main["dkg.step"].busy_s == 3.0


def test_spans_on_a_forge_thread_nest_among_themselves_only():
    clock = FakeClock()
    tracer = Tracer(clock)

    def verify():
        clock.advance(1.0)

    verify = tracer.wrap(verify, "crypto.sig_verify")

    def forge():
        clock.advance(0.5)
        verify()

    forge = tracer.wrap(forge, "service.presig.forge")

    def loop_callback():
        # The forge runs while this span is open on the loop thread,
        # yet must not become its child.
        thread = threading.Thread(target=forge)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()

    loop_callback = tracer.wrap(loop_callback, "service.workers.combine")
    clock.advance(1.0)
    loop_callback()
    main, other = tracer.totals([(0.0, 100.0)])
    assert set(main) == {"service.workers.combine"}
    assert main["service.workers.combine"].self_s == 1.5
    assert other["service.presig.forge"].busy_s == 1.5
    assert other["service.presig.forge"].self_s == 0.5
    assert other["crypto.sig_verify"].self_s == 1.0


def test_only_spans_started_inside_a_window_count():
    clock = FakeClock()
    tracer = Tracer(clock)

    def work():
        clock.advance(1.0)

    work = tracer.wrap(work, "crypto.work")
    clock.advance(1.0)
    work()  # starts at 1
    clock.advance(10.0)
    work()  # starts at 12
    main, _ = tracer.totals([(0.0, 5.0)])
    assert main["crypto.work"].calls == 1
    main, _ = tracer.totals([(0.0, 5.0), (12.0, 13.0)])
    assert main["crypto.work"].calls == 2


def test_a_span_is_closed_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.advance(1.0)
        raise KeyError("x")

    boom = tracer.wrap(boom, "crypto.boom")
    clock.advance(1.0)
    try:
        boom()
    except KeyError:
        pass
    main, _ = tracer.totals([(0.0, 100.0)])
    assert main["crypto.boom"].busy_s == 1.0
    assert tracer._state().stack == []


class _Target:
    def method(self):
        return "method"

    @classmethod
    def build(cls):
        return cls

    @staticmethod
    def helper():
        return "helper"

    async def wait(self):
        return ("signature", True)


def test_patch_wraps_every_kind_of_attribute_and_restore_puts_the_originals_back():
    originals = dict(vars(_Target))
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.patch(_Target, "method", "a.method")
    tracer.patch(_Target, "build", "a.build")
    tracer.patch(_Target, "helper", "a.helper")
    tracer.patch(_Target, "wait", lambda result: f"a.wait.{result[1]}")
    clock.advance(1.0)
    assert _Target().method() == "method"
    assert _Target.build() is _Target
    assert _Target.helper() == "helper"
    assert asyncio.run(_Target().wait()) == ("signature", True)
    main, _ = tracer.totals([(0.0, 100.0)])
    assert set(main) == {"a.method", "a.build", "a.helper"}
    assert tracer.awaited_in("a.wait.True", [(0.0, 100.0)]) == [0.0]
    tracer.restore()
    for attr in ("method", "build", "helper", "wait"):
        assert vars(_Target)[attr] is originals[attr]
