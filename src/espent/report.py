"""Full analysis of one state or a stack: ESPs, purities, the entropy stack,
optional interference simulation, and every cross-check residual."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import SeriesResult, linear_entropy, purity_heads, q_tilde, renyi_heads
from .entropy import truncated_entropies, von_neumann_heads
from .errors import DimensionMismatchError, InvalidOptionError, TooLargeError
from .fermions import check_bunching_size, fermionic_encoding_probability
from .states import PureBipartiteState, eigvalsh_spectra, gram_matrix, schmidt_spectra
from .states import spectra_ranks
from .volumes import ESPVector, check_esps, esp_heads

# The benchmark tracer (bench/spans.py) wraps these names, which analyze does not call.
from .entropy import purities_from_esp, purities_recurrence, renyi_entropy  # noqa: F401
from .entropy import s_r_truncated, von_neumann_direct, von_neumann_series  # noqa: F401
from .states import reduced_density_matrix, spectrum  # noqa: F401
from .volumes import esp_from_charpoly, esp_from_spectrum  # noqa: F401

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

    All but the S_r eigensolve and the report dicts run once on the stack.  The ESPs and
    purities come from the squared singular values of psi (accurate when small); the ESPs
    are checked against those of eigvalsh(rho), and the largest gap is reported.  rho is
    the Gram of the smaller side, its spectrum padded with exact zeros to n."""
    shapes = {state.amplitudes.shape for state in states}
    if len(shapes) != 1:
        got = f"shapes {sorted(shapes)}" if shapes else "no states"
        raise DimensionMismatchError(f"analyze_batch needs states of one shape, got {got}")
    if options is None:
        options = AnalysisOptions()
    if options.simulate_bunching:
        check_bunching_size(states[0])  # refused before the SVD and eigvalsh
    amps = np.array([state.amplitudes for state in states])
    B, n, d = amps.shape
    side = amps if n <= d else amps.swapaxes(1, 2)
    step = max(1, 2**16 // min(n, d) ** 2)  # a chunk's rho stack holds about 1 MiB
    lam = np.zeros((2 * B, n))  # the SVD's spectra, then eigvalsh's: 0 past the smaller side
    lam[:B] = schmidt_spectra(amps)
    for i in range(0, B, step):
        lam[B + i : B + i + step, : min(n, d)] = eigvalsh_spectra(gram_matrix(side[i : i + step]))
    rows, rank = lam.tolist(), spectra_ranks(lam)
    heads = [row[:r] for row, r in zip(rows, rank)]
    esp = esp_heads(heads, n)
    check_esps(esp[:, : max(rank)], n)  # e_k past the rank are exact zeros
    routes = np.abs(esp[:B] - esp[B:]).max(axis=1).tolist()
    heads = heads[:B]
    per_alpha = [renyi_heads(heads, a) for a in options.alphas]
    renyi = [{repr(a): v[i] for a, v in zip(options.alphas, per_alpha)} for i in range(B)]
    purities, vn = purity_heads(heads, options.k_max), von_neumann_heads(heads)
    reports = zip(states, rows, rank, esp[:B].tolist(), purities, vn, renyi, routes)  # B of 2B
    return [_report(*row, options) for row in reports]


def _report(state, spec, rank, esp, purities, vn, renyi, routes, options) -> AnalysisReport:
    n = state.n
    r_max = min(options.r_max or 4, n)
    esp = ESPVector.from_checked(n, tuple(esp))  # check_esps passed the stack

    # S_1 = -e_1 ln e_1 = 0.  From the rank on, e_r = 0 leaves S_r = S, summed over
    # the spectrum; the orders between are one eigensolve.
    series = dict.fromkeys(range(rank, r_max + 1), SeriesResult(vn, True))
    series[1] = SeriesResult(0.0, True)
    orders = range(2, min(r_max + 1, rank))
    series.update(zip(orders, truncated_entropies(esp, orders) if orders else ()))
    reported = range(1, r_max + 1)

    entropies = {
        "linear": linear_entropy(esp),
        "q_tilde": q_tilde(esp),
        "renyi": renyi,
        "s_r": {str(r): series[r].value for r in reported},
        "von_neumann_series": vn,
        "von_neumann_direct": vn,
    }
    convergence = {
        "von_neumann_series": {"converged": True},
        "s_r": {str(r): {"converged": series[r].converged} for r in reported},
    }

    bunching = None
    if options.simulate_bunching:
        bunching = {"p_bunch": fermionic_encoding_probability(state)}

    residuals = {
        "esp_routes_max": routes,
        "bunching_vs_e2": abs(bunching["p_bunch"] - esp[2]) if bunching else None,
    }

    return AnalysisReport(
        n=n,
        d=state.d,
        spectrum=tuple(spec),
        esp=esp.values,
        purities=tuple(purities),
        entropies=entropies,
        bunching=bunching,
        convergence=convergence,
        residuals=residuals,
    )
