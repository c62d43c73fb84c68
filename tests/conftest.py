import signal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

MODELS = Path(__file__).parent.parent / "src" / "syncha" / "models"
FIXTURES = Path(__file__).parent / "fixtures"
DELTA = Fraction(1, 100)
TEST_SECONDS = 120  # the slowest test takes about 10 s on a 2-CPU VM


class TimedOut(BaseException):
    """A test ran longer than `TEST_SECONDS`.

    Not an `Exception`, so Hypothesis does not take it for a failing
    example and run that example again to shrink it.
    """


@pytest.fixture(autouse=True)
def time_limit(request):
    """Fail a test that runs longer than `TEST_SECONDS`, by name, rather than hang the suite."""

    def expire(signum, frame):
        raise TimedOut(f"{request.node.nodeid} ran longer than {TEST_SECONDS} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture(scope="session")
def models_dir() -> Path:
    return MODELS


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def watertank_net():
    from syncha.model import load_model

    return load_model(MODELS / "watertank.pha")


@pytest.fixture(scope="session")
def tank_swa(watertank_net):
    from syncha.swa import compile_automaton

    return compile_automaton(watertank_net.automaton("tank"), DELTA)[0]


@pytest.fixture(scope="session")
def burner_swa(watertank_net):
    from syncha.swa import compile_automaton

    return compile_automaton(watertank_net.automaton("burner"), DELTA)[0]


@pytest.fixture(scope="session")
def watertank_swa(tank_swa, burner_swa):
    from syncha.swa import compose

    return compose(tank_swa, burner_swa)


@pytest.fixture(scope="session")
def thermostat_swa():
    from syncha.model import load_model
    from syncha.swa import compile_automaton

    net = load_model(MODELS / "thermostat.pha")
    return compile_automaton(net.automaton("thermo"), DELTA)[0]


@pytest.fixture(scope="session")
def traingate_swa():
    from syncha.model import load_model
    from syncha.swa import compile_automaton, compose

    net = load_model(MODELS / "traingate.pha")
    train = compile_automaton(net.automaton("train"), DELTA)[0]
    gate = compile_automaton(net.automaton("gate"), DELTA)[0]
    return compose(train, gate)


@pytest.fixture(scope="session")
def pingpong_net():
    from syncha.model import load_model

    return load_model(FIXTURES / "pingpong.pha")


@pytest.fixture(scope="session")
def pingpong_swas(pingpong_net):
    from syncha.swa import compile_automaton

    left = compile_automaton(pingpong_net.automaton("left"), DELTA)[0]
    right = compile_automaton(pingpong_net.automaton("right"), DELTA)[0]
    return left, right
