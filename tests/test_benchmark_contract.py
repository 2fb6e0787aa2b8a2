"""What the benchmark's tracer (perfbench/tracing.py) relies on in jetmech.

The tracer rebinds each name in its ``LAYERS`` table in every jetmech module
and rebuilds each assembled law with ``dataclasses.replace(ode, rhs=...)``
to count right-hand-side calls. A rename here would silently drop a layer
from the per-layer metrics, so the names are pinned from the table itself.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from jetmech import dynamics
from jetmech.dsl import preset
from jetmech.spencer import dual_spencer

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def tracing_layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def harmonic_law():
    system = preset("harmonic")
    return system, dynamics.assemble_explicit(dual_spencer(system.phi), system.param_values())


def test_every_traced_name_is_a_jetmech_function():
    layers = tracing_layers()
    assert "accelerations_on" in layers["dynamics"]
    for module, names in layers.items():
        mod = importlib.import_module(f"jetmech.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"jetmech.{module}.{name}"


def test_assembled_law_takes_a_replaced_rhs():
    system, ode = harmonic_law()
    calls = []

    def rhs(t, x, v):
        calls.append(t)
        return ode.rhs(t, x, v)

    traced = dataclasses.replace(ode, rhs=rhs)
    assert traced.rhs(0.5, [1.0], [0.0]) == ode.rhs(0.5, [1.0], [0.0])
    assert calls == [0.5]
    traj = dynamics.integrate(traced, *system.init, (0.0, 1.0), 0.1)
    assert traj.law is traced


def test_trajectory_accels_go_through_accelerations_on_once(monkeypatch):
    # the tracer counts accelerations_on by rebinding the module global
    system, ode = harmonic_law()
    traj = dynamics.integrate(ode, *system.init, (0.0, 1.0), 0.1)
    seen = []
    original = dynamics.accelerations_on

    def counted(traj, law):
        seen.append(law)
        return original(traj, law)

    monkeypatch.setattr(dynamics, "accelerations_on", counted)
    first = traj.accels
    assert traj.accels is first
    assert len(seen) == 1 and seen[0] is ode
    assert np.array_equal(first, original(traj, ode))
