"""The execution switches (repro.switches), tested once for all five.

Every switch resolves by the same rule — explicit argument > override >
environment variable > default — so one parametrized suite pins it for
``REPRO_KERNELS``, ``REPRO_PERF``, ``REPRO_FAULTSIM``, ``REPRO_SCHEDULER``
and ``REPRO_WORKERS``: precedence, restore on exit, invalid explicit
values, and the environment read at import (select and reject, in a
subprocess). The scoping contract follows: an override is seen by its own
thread and by a process forked inside it, never by another thread — so a
campaign-server job thread cannot flip another job's engine.

Family wiring (a config's ``engine`` field reaching its switch, the
runner's ``workers`` reaching the executor) is tested with each family.
"""

import multiprocessing
import os
import subprocess
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack

import pytest

from repro.ecc.chipkill import ChipkillCode
from repro.ecc.kernels import kernel_mode
from repro.switches import FAULTSIM, KERNELS, PERF, SWITCHES

#: Per switch: two distinct valid values and one invalid value.
VALUES = {
    "REPRO_KERNELS": ("fast", "reference", "turbo"),
    "REPRO_PERF": ("fast", "reference", "warp"),
    "REPRO_FAULTSIM": ("fast", "reference", "quick"),
    "REPRO_SCHEDULER": ("pool", "steal", "magic"),
    "REPRO_WORKERS": (3, 5, 0),
}

#: The switches that pick fast or reference code.
MODE_SWITCHES = (KERNELS, PERF, FAULTSIM)

each_switch = pytest.mark.parametrize("switch", SWITCHES, ids=lambda s: s.env)


def test_every_switch_has_a_case():
    assert sorted(VALUES) == sorted(s.env for s in SWITCHES)


@each_switch
def test_explicit_beats_override(switch):
    first, second, _ = VALUES[switch.env]
    with switch.override(second):
        assert switch.get() == second
        assert switch.get(first) == first


@each_switch
def test_override_restores_on_exit(switch):
    first, second, _ = VALUES[switch.env]
    before = switch.get()
    with switch.override(first):
        with switch.override(second):
            assert switch.get() == second
        assert switch.get() == first
    assert switch.get() == before
    with pytest.raises(RuntimeError):
        with switch.override(second):
            raise RuntimeError
    assert switch.get() == before


@each_switch
def test_invalid_explicit_value_rejected(switch):
    _, _, invalid = VALUES[switch.env]
    before = switch.get()
    with pytest.raises(ValueError, match=switch.env):
        switch.get(invalid)
    with pytest.raises(ValueError, match=switch.env):
        with switch.override(invalid):
            pass
    assert switch.get() == before


def python_with_env(script, **variables):
    """Run ``script`` in a fresh interpreter (from the repository root)
    with each of ``variables`` set, or unset when None; the environment is
    read at import, so this is how tests reach it."""
    env = {key: value for key, value in os.environ.items() if key not in variables}
    env.update({key: value for key, value in variables.items() if value is not None})
    env["PYTHONPATH"] = "src" + os.pathsep + os.environ.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _resolve_in_subprocess(switch, raw):
    index = SWITCHES.index(switch)
    script = f"from repro.switches import SWITCHES; print(SWITCHES[{index}].get())"
    return python_with_env(script, **{switch.env: raw})


@each_switch
def test_env_value_selects_and_default_applies(switch):
    _, second, _ = VALUES[switch.env]
    # Stripped and lower-cased once, at import.
    selected = _resolve_in_subprocess(switch, f"  {str(second).upper()} ")
    assert selected.returncode == 0, selected.stderr
    assert selected.stdout.strip() == str(second)
    default = _resolve_in_subprocess(switch, None)
    assert default.returncode == 0, default.stderr
    assert default.stdout.strip() == str(switch.default)
    blank = _resolve_in_subprocess(switch, "   ")
    assert blank.stdout.strip() == str(switch.default)


@each_switch
def test_invalid_env_rejected_at_import(switch):
    _, _, invalid = VALUES[switch.env]
    out = _resolve_in_subprocess(switch, str(invalid))
    assert out.returncode != 0
    assert "ValueError" in out.stderr
    assert switch.env in out.stderr


def _flipped(switch):
    return "reference" if switch.get() == "fast" else "fast"


def _modes():
    return kernel_mode(), PERF.get(), FAULTSIM.get()


def test_override_is_invisible_to_other_threads():
    """Another thread keeps the env/default modes, codecs included."""
    ambient = _modes()
    seen = {}

    def other_thread():
        seen["modes"] = _modes()
        seen["codec_fast"] = ChipkillCode()._fast

    with ExitStack() as stack:
        for switch in MODE_SWITCHES:
            stack.enter_context(switch.override(_flipped(switch)))
        forced = _modes()
        assert forced != ambient
        assert ChipkillCode()._fast == (forced[0] == "fast")
        thread = threading.Thread(target=other_thread)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert _modes() == forced
    assert seen == {"modes": ambient, "codec_fast": ambient[0] == "fast"}
    assert _modes() == ambient


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
def test_forked_worker_inherits_override():
    context = multiprocessing.get_context("fork")
    with ExitStack() as stack:
        for switch in MODE_SWITCHES:
            stack.enter_context(switch.override(_flipped(switch)))
        forced = _modes()
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            assert pool.submit(_modes).result(timeout=60) == forced
