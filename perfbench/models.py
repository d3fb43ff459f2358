"""The circuits the workloads compile, and how their inputs are drawn.

Every random choice comes from a ``numpy`` generator seeded from the
run's ``--seed``; the program only ever sees the generated values.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

import numpy as np

#: the paper's 741 symbols (section 3.1) and their sweep ranges
GO_RANGE = (0.5, 4.0)            # x nominal go_Q14
CCOMP_RANGE = (10e-12, 60e-12)   # farads
#: relative size of the seeded perturbation of non-symbolic elements
PERTURB = 1e-6


@dataclass
class Spec:
    """One circuit of the design-loop set."""

    key: str
    circuit: object
    output: str
    symbols: list | None   # None: auto-select ``n_symbols``
    order: int
    n_symbols: int = 2
    #: symbol -> (low, high) multipliers of the nominal value
    ranges: dict | None = None
    #: also derive the closed-form order-1/2 pole expressions
    closed_forms: bool = True

    def compile(self, circuit=None):
        """Cold ``awesymbolic`` on ``circuit`` (default: the nominal one)."""
        awesymbolic = importlib.import_module("repro.core.awesymbolic")
        return awesymbolic.awesymbolic(
            circuit if circuit is not None else self.circuit, self.output,
            symbols=self.symbols, n_symbols=self.n_symbols, order=self.order,
            build_closed_forms=self.closed_forms)


def build(keys) -> dict:
    """Build the requested circuit specs (bias points solved once)."""
    from repro.circuits.library import (fig1_circuit, paper_coupled_lines,
                                        small_signal_741, small_signal_ota)
    from repro.circuits.library.coupled_lines import victim_output

    out = {}
    need741 = any(k.startswith("op741") for k in keys)
    c741 = small_signal_741().circuit if need741 else None
    for key in keys:
        if key == "fig1_o3":
            out[key] = Spec(key, fig1_circuit(), "out", ["C1", "C2"], 3,
                            ranges={"C1": (0.5, 2.0), "C2": (0.5, 2.0)})
        elif key == "ota_o2":
            out[key] = Spec(key, small_signal_ota().circuit, "out",
                            ["Cc", "gds_M6"], 2,
                            ranges={"Cc": (0.5, 2.0), "gds_M6": (0.5, 2.0)})
        elif key in ("op741_o2", "op741_o4"):
            out[key] = Spec(key, c741, "out", ["go_Q14", "Ccomp"],
                            int(key[-1]), ranges=None)
        elif key == "op741auto_o2":
            # closed forms off: with three symbols, about one perturbed
            # compile in six overflows Python's compiler recursion limit
            # while compiling the order-2 closed-form poles
            out[key] = Spec(key, c741, "out", None, 2, n_symbols=3,
                            closed_forms=False)
        elif key == "lines_o2":
            out[key] = Spec(key, paper_coupled_lines(), victim_output(1000),
                            ["Rdrv1", "Cload2"], 2,
                            ranges={"Rdrv1": (0.2, 8.0),
                                    "Cload2": (0.2, 20.0)})
        else:
            raise KeyError(key)
    return out


def draw_values(spec: Spec, model, rng, n: int) -> list[dict]:
    """``n`` seeded element-value points over the spec's symbols."""
    names = list(model.element_slots)
    nominal = {name: float(spec.circuit[name].value) for name in names}
    points = [dict() for _ in range(n)]
    for name in names:
        if name == "Ccomp":
            col = rng.uniform(*CCOMP_RANGE, size=n)
        else:
            lo, hi = (spec.ranges or {}).get(name, GO_RANGE)
            col = nominal[name] * rng.uniform(lo, hi, size=n)
        for point, v in zip(points, col):
            point[name] = float(v)
    return points


def grid_741(rng, n: int, nominal_go: float) -> dict:
    """A seeded ``n x n`` cartesian grid over the paper's 741 symbols:
    sorted uniform draws inside the paper's ranges."""
    go = np.sort(rng.uniform(*GO_RANGE, size=n)) * nominal_go
    cc = np.sort(rng.uniform(*CCOMP_RANGE, size=n))
    return {"go_Q14": go, "Ccomp": cc}


def perturbed(circuit, symbols, rng):
    """A copy of ``circuit`` whose non-symbolic R/G/C/L values and
    transconductances moved by a seeded relative ``PERTURB``, so no
    process-level memo can serve a compile of it."""
    from repro.circuits.elements import (VCCS, Capacitor, Conductance,
                                         Inductor, Resistor)
    keep = set(symbols or ())
    copy = circuit.copy()
    for element in circuit:
        if element.name in keep or not isinstance(
                element, (Resistor, Conductance, Capacitor, Inductor, VCCS)):
            continue
        factor = 1.0 + PERTURB * rng.uniform(-1.0, 1.0)
        copy.replace_value(element.name, float(element.value) * factor)
    return copy
