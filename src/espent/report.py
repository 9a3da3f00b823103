"""Full analysis of a single state: ESPs, purities, the entropy stack,
optional interference simulation, and every cross-check residual."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import (
    PuritySequence,
    SeriesResult,
    linear_entropy,
    purities_from_esp,  # noqa: F401  the benchmark tracer (bench/spans.py) wraps this name
    purities_from_spectrum,
    purities_recurrence,
    q_tilde,
    renyi_entropy,
    s_r_truncated,  # noqa: F401  the benchmark tracer (bench/spans.py) wraps this name
    truncated_entropies,
    von_neumann_direct,
    von_neumann_series,  # noqa: F401  the benchmark tracer (bench/spans.py) wraps this name
)
from .errors import InvalidOptionError
from .fermions import fermionic_encoding_probability
from .states import PureBipartiteState, reduced_density_matrix, schmidt_spectrum, spectrum
from .volumes import (
    esp_from_charpoly,  # noqa: F401  the benchmark tracer (bench/spans.py) wraps this name
    esp_from_spectrum,
)

SCHEMA_VERSION = 3


@dataclass(frozen=True)
class AnalysisOptions:
    r_max: int | None = None          # default min(n, 4)
    k_max: int = 8
    alphas: tuple[float, ...] = (2.0,)
    simulate_bunching: bool = False

    def __post_init__(self):
        if self.r_max is not None and self.r_max < 1:
            raise InvalidOptionError(f"r_max={self.r_max}; need r_max >= 1")
        if self.k_max < 1:
            raise InvalidOptionError(f"k_max={self.k_max}; need k_max >= 1")


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

    The spectrum is the squared singular values of psi, whose small
    eigenvalues come out with relative accuracy; the ESPs and purities are
    computed from it.  Each is checked against a second route and the
    residual reported: the ESPs against those of eigvalsh(rho), the purities
    against Newton's recurrence on the ESPs.
    """
    if options is None:
        options = AnalysisOptions()
    spec = schmidt_spectrum(state)
    n = state.n
    r_max = options.r_max if options.r_max is not None else min(n, 4)
    r_max = min(r_max, n)

    esp = esp_from_spectrum(spec)
    esp_eig = esp_from_spectrum(spectrum(reduced_density_matrix(state, side="M")))
    esp_route_residual = float(
        np.max(np.abs(np.array(esp.values) - np.array(esp_eig.values)))
    )

    purities = purities_from_spectrum(spec, options.k_max)
    purity_residual = _purity_residual(purities, purities_recurrence(esp, options.k_max))

    # S_1 = -e_1 ln e_1 = 0, S_n sums over the spectrum, the rest is one eigensolve.
    vn_direct = von_neumann_direct(spec)
    vn_series = SeriesResult(value=vn_direct, terms_used=1, converged=True)
    series = {1: SeriesResult(value=0.0, terms_used=1, converged=True), n: vn_series}
    orders = range(2, min(r_max + 1, n))
    series.update(zip(orders, truncated_entropies(esp, orders) if orders else ()))

    s_r = {str(r): series[r].value for r in range(1, r_max + 1)}
    convergence: dict = {
        "von_neumann_series": {
            "terms_used": vn_series.terms_used,
            "converged": vn_series.converged,
        },
        "s_r": {
            str(r): {"terms_used": series[r].terms_used, "converged": series[r].converged}
            for r in range(1, r_max + 1)
        },
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
