"""Full analysis of one state or a stack: ESPs, purities, the entropy stack,
optional interference simulation, and every cross-check residual."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import (
    SeriesResult,
    linear_entropy,
    purities_from_esp,  # noqa: F401  the benchmark tracer (bench/spans.py) wraps this name
    purities_from_spectrum,
    purities_recurrence,  # noqa: F401  the benchmark tracer (bench/spans.py) wraps this name
    q_tilde,
    renyi_entropy,
    s_r_truncated,  # noqa: F401  the benchmark tracer (bench/spans.py) wraps this name
    truncated_entropies,
    von_neumann_direct,
    von_neumann_series,  # noqa: F401  the benchmark tracer (bench/spans.py) wraps this name
)
from .errors import DimensionMismatchError, InvalidOptionError, TooLargeError
from .fermions import check_bunching_size, fermionic_encoding_probability
from .states import PureBipartiteState, Spectrum, eigvalsh_spectra, gram_matrix, schmidt_spectra
from .states import reduced_density_matrix, spectrum  # noqa: F401  bench/spans.py wraps these
from .volumes import (
    esp_from_charpoly,  # noqa: F401  the benchmark tracer (bench/spans.py) wraps this name
    esp_from_spectrum,
)

SCHEMA_VERSION = 5
# Purities cost time and memory linear in k_max: over 2^16 purities of an 8 x 8
# state analyze takes about 0.07 s, and the whole CLI call 0.24 s with a 40 MB
# peak (one BLAS thread), so larger requests are refused before any work.
MAX_K = 2**16


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
        if self.k_max > MAX_K:
            raise TooLargeError(f"k_max={self.k_max} exceeds {MAX_K}")


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
    """Run the full measurement stack on one state: analyze_batch of one."""
    return analyze_batch([state], options)[0]


def analyze_batch(states, options: AnalysisOptions | None = None) -> list[AnalysisReport]:
    """Run the full measurement stack on each of a nonempty list of same-shape states.

    The SVD, Gram rho and eigvalsh run once on the stack, the rest per state.  The ESPs
    and purities come from the squared singular values of psi (accurate when small); the
    ESPs are checked against those of eigvalsh(rho), and the largest gap is reported.
    rho is the Gram of the smaller side, its spectrum padded with exact zeros to n."""
    shapes = {state.amplitudes.shape for state in states}
    if len(shapes) != 1:
        got = f"shapes {sorted(shapes)}" if shapes else "no states"
        raise DimensionMismatchError(f"analyze_batch needs states of one shape, got {got}")
    if options is None:
        options = AnalysisOptions()
    if options.simulate_bunching:
        check_bunching_size(states[0])  # refused before the SVD and eigvalsh
    amps = np.array([state.amplitudes for state in states])
    n, d = amps.shape[1:]
    side = amps if n <= d else amps.swapaxes(1, 2)
    step = max(1, 2**16 // min(n, d) ** 2)  # a chunk's rho stack holds about 1 MiB
    eig = np.zeros((len(amps), n))  # the n - d eigenvalues past the smaller side are 0
    for i in range(0, len(amps), step):
        eig[i : i + step, : side.shape[1]] = eigvalsh_spectra(gram_matrix(side[i : i + step]))
    return [
        _report(state, Spectrum(eigenvalues=lam), Spectrum(eigenvalues=e), options)
        for state, lam, e in zip(states, schmidt_spectra(amps).tolist(), eig.tolist())
    ]


def _report(state, spec: Spectrum, spec_eig: Spectrum, options: AnalysisOptions) -> AnalysisReport:
    n = state.n
    r_max = min(options.r_max or 4, n)
    esp = esp_from_spectrum(spec)
    purities = purities_from_spectrum(spec, options.k_max)

    # S_1 = -e_1 ln e_1 = 0.  From the rank on, e_r = 0 leaves S_r = S, summed over
    # the spectrum; the orders between are one eigensolve.
    vn_direct = von_neumann_direct(spec)
    series = dict.fromkeys(range(spec.rank, r_max + 1), SeriesResult(vn_direct, True))
    series[1] = SeriesResult(0.0, True)
    orders = range(2, min(r_max + 1, spec.rank))
    series.update(zip(orders, truncated_entropies(esp, orders) if orders else ()))
    reported = range(1, r_max + 1)

    entropies = {
        "linear": linear_entropy(esp),
        "q_tilde": q_tilde(esp),
        "renyi": {repr(a): renyi_entropy(spec, a) for a in options.alphas},
        "s_r": {str(r): series[r].value for r in reported},
        "von_neumann_series": vn_direct,
        "von_neumann_direct": vn_direct,
    }
    convergence = {
        "von_neumann_series": {"converged": True},
        "s_r": {str(r): {"converged": series[r].converged} for r in reported},
    }

    bunching = None
    if options.simulate_bunching:
        bunching = {"p_bunch": fermionic_encoding_probability(state)}

    esp_eig = esp_from_spectrum(spec_eig).values
    residuals = {
        "esp_routes_max": max(abs(x - y) for x, y in zip(esp.values, esp_eig)),
        "bunching_vs_e2": abs(bunching["p_bunch"] - esp[2]) if bunching else None,
    }

    return AnalysisReport(
        n=n,
        d=state.d,
        spectrum=spec.eigenvalues,
        esp=esp.values,
        purities=purities.values,
        entropies=entropies,
        bunching=bunching,
        convergence=convergence,
        residuals=residuals,
    )

