"""System specs, their samplers and matrix-free projections.

A system is one of the catalog kinds in KINDS and a dimension n; the
kind and n fix everything else (the Walsh characters, the anisotropic
covariance).  Every system is centered with E|X|^2 = n: unit-variance
coordinates, or for the anisotropic Gaussian covariance eigenvalues
rescaled to sum to n (up to rounding).  Samplers draw every row from
one generator, `as_rng(rng)`, so they are deterministic given (spec,
integer seed).

`project` returns the weighted sums <X, theta> from the same draws as
`weighted_sum(sample_vector(...))`, and `squared_norms` the |X|^2 of
those draws.  Neither forms the whole N x n matrix for any kind: `_draw`
draws and reduces the rows one `quadrature.blocks` block of n entries
per row at a time, or fewer where the kind has a matrix-free form:

- trigonometric: at the drawn frequencies w, <X, theta> = Re(z P(z))
  with z = e^(iw) and P(z) = sum_k sqrt2 (theta_(2k-1) - i theta_(2k))
  z^(k-1), evaluated by Horner's rule (the complex form of Clenshaw's
  summation); equal to the matrix path up to rounding;
- walsh: each drawn sign row is packed into an index b of the 2^m cube
  and looked up in v = (cube rows) @ theta, built once per call.  It is
  bit for bit the matrix path, except on rows that BLAS evaluates in a
  2-row remainder block of its matvec kernel (which ones depends on the
  count and the BLAS thread count), where the matrix path itself rounds
  differently.

`sample_vector`, which does return the whole matrix, fills it by the
same blocks, so no kind holds a second full-size array (integer signs,
trig angles) beside it.

By the block rule of `quadrature`, with one BLAS thread the blocked
matvec is bit for bit the matrix path; squared norms are bit for bit in
any case.

`direction_cf` is the exact cf of <X, theta> for every kind, from the
same tables: the Walsh values of the lookup above, and for trig the
coefficients of the Horner form, summed on an equispaced frequency grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, DomainError, NumericKernelError, check_count
from .quadrature import blocks
from .rng import as_rng
from .sphere_law import Direction

SQRT3 = math.sqrt(3.0)
SQRT2 = math.sqrt(2.0)

# The catalog kinds, in catalog order; spec_id shortens three of them.
KINDS = ("rademacher", "uniform", "exponential", "normal", "trigonometric", "walsh",
         "fixed_norm_rademacher", "gaussian_anisotropic")
SHORT_NAMES = {"trigonometric": "trig", "fixed_norm_rademacher": "fixed_norm",
               "gaussian_anisotropic": "aniso"}
KIND_OF_SHORT_NAME = {short: kind for kind, short in SHORT_NAMES.items()}

# Most equispaced frequencies the trigonometric cf may double up to, and
# how closely the cfs of two successive grids must agree.
TRIG_CF_MAX_POINTS = 1 << 20
TRIG_CF_TOL = 1e-12


@lru_cache(maxsize=None)
def default_walsh_characters(n: int) -> tuple[tuple[int, ...], ...]:
    """The n smallest nonempty subsets of {1..m}, m = walsh_bits(n), in graded-lex order."""
    m = walsh_bits(n)
    chars = []
    for size in range(1, m + 1):
        for combo in itertools.combinations(range(1, m + 1), size):
            chars.append(combo)
            if len(chars) == n:
                return tuple(chars)
    raise AssertionError("unreachable")


def walsh_bits(n: int) -> int:
    """The minimal m with 2^m - 1 >= n: the sign bits of a Walsh row."""
    return int(n).bit_length()


@dataclass(frozen=True)
class SystemSpec:
    """A catalog system: its kind and dimension determine its law."""

    kind: str
    n: int

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise ConfigurationError(f"dimension must be an integer >= 2, got {self.n}")
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown system kind {self.kind!r}")
        if self.kind == "trigonometric" and self.n % 2 != 0:
            raise ConfigurationError(f"trigonometric system needs even n, got {self.n}")

    @property
    def spec_id(self) -> str:
        return f"{SHORT_NAMES.get(self.kind, self.kind)}-n{self.n}"

    @property
    def is_fixed_norm(self) -> bool:
        """Whether |X|^2 = n holds almost surely."""
        return self.kind in ("rademacher", "trigonometric", "walsh", "fixed_norm_rademacher")

    @property
    def is_isotropic(self) -> bool:
        return self.kind != "gaussian_anisotropic"

    @property
    def is_gaussian(self) -> bool:
        return self.kind in ("normal", "gaussian_anisotropic")


@dataclass(frozen=True)
class SampleBatch:
    matrix: np.ndarray
    spec: SystemSpec


def _uniform(gen: np.random.Generator, lo: float, hi: float, size) -> np.ndarray:
    """gen.uniform(lo, hi, size) bit for bit: lo + (hi - lo) u, mapped in place."""
    out = gen.random(size)
    out *= hi - lo
    out += lo
    return out


def _sample_rows(spec: SystemSpec, count: int, gen: np.random.Generator) -> np.ndarray:
    n = spec.n
    # affine maps act in place: no second count x n array
    # fixed-norm rademacher draws exactly like rademacher
    if spec.kind in ("rademacher", "fixed_norm_rademacher"):
        out = gen.integers(0, 2, size=(count, n)).astype(float)
        out *= 2.0
        out -= 1.0
        return out
    if spec.kind == "uniform":
        return _uniform(gen, -SQRT3, SQRT3, (count, n))
    if spec.kind == "exponential":
        out = gen.standard_exponential(size=(count, n))
        out -= 1.0
        return out
    if spec.kind == "normal":
        return gen.standard_normal(size=(count, n))
    if spec.kind == "trigonometric":
        omega = _uniform(gen, -math.pi, math.pi, count)
        k = np.arange(1, n // 2 + 1, dtype=float)
        ang = omega[:, None] * k[None, :]
        out = np.empty((count, n))
        out[:, 0::2] = SQRT2 * np.cos(ang)
        out[:, 1::2] = SQRT2 * np.sin(ang)
        return out
    if spec.kind == "walsh":
        return _walsh_rows(n, gen.integers(0, 2, size=(count, walsh_bits(n))))
    out = gen.standard_normal(size=(count, n))  # gaussian_anisotropic
    out *= np.sqrt(np.asarray(spiked_eigenvalues(n)))
    return out


@lru_cache(maxsize=4)  # 2^m x n floats: 32 KB at n = 63, 134 MB at n = 4095
def _walsh_table(n: int) -> np.ndarray:
    """The n Walsh characters at all 2^m sign rows, row b for packed bits b (read-only)."""
    m = walsh_bits(n)
    eps = ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1) * 2.0 - 1.0
    table = np.empty((1 << m, n))
    for j, char in enumerate(default_walsh_characters(n)):
        table[:, j] = np.prod(eps[:, np.array(char) - 1], axis=1)
    table.flags.writeable = False
    return table


def _walsh_rows(n: int, bits: np.ndarray) -> np.ndarray:
    """The n Walsh characters at the sign rows eps = 2 bits - 1."""
    return _walsh_table(n)[bits @ (1 << np.arange(bits.shape[1]))]


def sample_vector(spec: SystemSpec, count: int, rng) -> SampleBatch:
    """Draw `count` i.i.d. rows from the law of X.

    The matrix is filled one `quadrature.blocks` block of rows at a time,
    so a kind's draw temporaries (integer signs, trig angles) stay one
    block; a block drawn from as_rng(rng) is the next rows of the one-shot
    draw.  A count that fits in one block is that block's array itself.
    """
    check_count(count, "sample count")
    gen = as_rng(rng)
    cuts = list(blocks(count, spec.n))
    if len(cuts) == 1:
        return SampleBatch(matrix=_sample_rows(spec, count, gen), spec=spec)
    matrix = np.empty((count, spec.n))
    for block in cuts:
        matrix[block] = _sample_rows(spec, block.stop - block.start, gen)
    return SampleBatch(matrix=matrix, spec=spec)


def _draw(draw, count: int, rng, width: int) -> np.ndarray:
    """draw(rows, generator), one value per row, over `count` rows in blocks.

    The blocks of `width` entries per row (those of draw's largest
    temporary) all come from as_rng(rng): the rows of one draw of `count`.
    """
    check_count(count, "sample count")
    gen = as_rng(rng)
    out = np.empty(count)
    for block in blocks(count, width):
        out[block] = draw(block.stop - block.start, gen)
    return out


def _check_direction(n: int, theta: Direction) -> None:
    """The direction of a projection or cf has the system's dimension n."""
    if theta.n != n:
        raise DomainError(f"dimension mismatch: system has n={n}, direction has n={theta.n}")


def weighted_sum(batch: SampleBatch, theta: Direction) -> np.ndarray:
    """Row-wise inner products <X, theta>."""
    _check_direction(batch.matrix.shape[1], theta)
    return batch.matrix @ theta.coords


def _trig_coefficients(theta: Direction) -> np.ndarray:
    """c_k with <X, theta> = Re sum_k c_k e^(ikw), k = 1..n/2, at frequency w."""
    return SQRT2 * (theta.coords[0::2] - 1j * theta.coords[1::2])


def _trig_projector(theta: Direction):
    """rows, generator -> <X, theta> at the drawn frequencies, by Horner."""
    coef = _trig_coefficients(theta)

    def draw(rows: int, gen: np.random.Generator) -> np.ndarray:
        z = np.exp(1j * _uniform(gen, -math.pi, math.pi, rows))
        p = np.full(rows, coef[-1])
        for c in coef[-2::-1]:
            p *= z
            p += c
        p *= z
        return p.real

    return draw


def _walsh_values(theta: Direction) -> np.ndarray:
    """<X, theta> at each of the 2^m equally likely sign rows, by packed index."""
    return _walsh_table(theta.n) @ theta.coords


def _walsh_projector(theta: Direction):
    """rows, generator -> <X, theta> looked up by packed sign pattern."""
    m = walsh_bits(theta.n)
    powers = 1 << np.arange(m)
    values = _walsh_values(theta)

    def draw(rows: int, gen: np.random.Generator) -> np.ndarray:
        return values[gen.integers(0, 2, size=(rows, m)) @ powers]

    return draw


def squared_norms(spec: SystemSpec, count: int, rng) -> np.ndarray:
    """|X|^2 of each row of sample_vector(spec, count, rng), bit for bit."""
    def draw(rows: int, gen: np.random.Generator) -> np.ndarray:
        x = sample_vector(spec, rows, gen).matrix
        return np.add.reduce(x * x, axis=1)

    return _draw(draw, count, rng, spec.n)


def project(spec: SystemSpec, theta: Direction, count: int, rng) -> np.ndarray:
    """The `count` values of <X, theta>, from the draws of `sample_vector`.

    Equals weighted_sum(sample_vector(spec, count, rng), theta) up to
    rounding; see the module docstring for when it is bit for bit.
    """
    _check_direction(spec.n, theta)
    if spec.kind == "trigonometric":  # z and p: one complex per row
        return _draw(_trig_projector(theta), count, rng, 2)
    if spec.kind == "walsh":  # the m sign bits of a row
        return _draw(_walsh_projector(theta), count, rng, walsh_bits(spec.n))
    return _draw(lambda rows, gen: weighted_sum(sample_vector(spec, rows, gen), theta),
                 count, rng, spec.n)


# ---------------------------------------------------------------------------
# Exact cfs of <X, theta>
# ---------------------------------------------------------------------------

# cf of one coordinate of the iid kinds at s = theta_k t
_COORDINATE_CF = {
    "rademacher": np.cos,
    "fixed_norm_rademacher": np.cos,
    "uniform": lambda s: np.sinc(s * (SQRT3 / math.pi)),   # sin(sqrt3 s) / (sqrt3 s)
    "exponential": lambda s: np.exp(-1j * s) / (1.0 - 1j * s),
}


def _over_t(t: np.ndarray, width: int, f) -> np.ndarray:
    """f(t_block[:, None]) for every t, a `quadrature.blocks` block of t at a time."""
    out = np.empty(t.shape[0], dtype=complex)
    for block in blocks(t.shape[0], width):
        out[block] = f(t[block, None])
    return out


def _mean_exp(values: np.ndarray, t: np.ndarray) -> np.ndarray:
    """mean_j exp(i t v_j) at each t: the cf of the uniform law on `values`."""
    return _over_t(t, values.size, lambda tb: np.exp(1j * (tb * values)).mean(axis=1))


def _trig_cf(theta: Direction, t: np.ndarray) -> np.ndarray:
    """Mean of exp(i t <X, theta>) over M equispaced frequencies.

    s(w) = <X, theta> on the grid w_j = 2 pi j / M is one inverse FFT of
    the coefficients.  M starts above n and doubles, each finer grid
    adding the midpoints of the last, until at every t two successive
    grids agree within TRIG_CF_TOL; a t that has agreed stops refining.
    Past TRIG_CF_MAX_POINTS it raises.
    """
    coef = _trig_coefficients(theta)
    spectrum = np.zeros(1 << theta.n.bit_length(), dtype=complex)
    spectrum[1:coef.size + 1] = coef
    cf = _mean_exp(np.fft.ifft(spectrum, norm="forward").real, t)
    todo = np.arange(t.shape[0])
    while spectrum.size < TRIG_CF_MAX_POINTS:
        spectrum = np.concatenate([spectrum, np.zeros(spectrum.size, dtype=complex)])
        odd = np.fft.ifft(spectrum, norm="forward").real[1::2]
        finer = 0.5 * (cf[todo] + _mean_exp(odd, t[todo]))
        moved = np.abs(finer - cf[todo]) > TRIG_CF_TOL
        cf[todo] = finer
        todo = todo[moved]
        if todo.size == 0:
            return cf
    raise NumericKernelError(
        f"trigonometric cf of n={theta.n} did not settle to {TRIG_CF_TOL} "
        f"within {TRIG_CF_MAX_POINTS} frequencies at t up to {t.max(initial=0.0)}")


def direction_cf(spec: SystemSpec, theta: Direction, t) -> np.ndarray:
    """The exact cf E exp(i t <X, theta>) at each t, for every catalog kind.

    iid kinds: the product over k of the coordinate cf at theta_k t.
    Gaussian kinds: exp(-t^2 sum_k lambda_k theta_k^2 / 2).  Walsh: the
    mean over the 2^m values of `_walsh_values`.  Trigonometric: see
    `_trig_cf`, which raises NumericKernelError if its grid fails to settle.
    """
    _check_direction(spec.n, theta)
    t = np.asarray(t, dtype=float)
    if spec.kind == "walsh":
        return _mean_exp(_walsh_values(theta), t)
    if spec.kind == "trigonometric":
        return _trig_cf(theta, t)
    if spec.is_gaussian:
        lam = 1.0 if spec.is_isotropic else np.asarray(spiked_eigenvalues(spec.n))
        var = float(np.sum(lam * np.square(theta.coords)))
        return np.exp(-0.5 * var * np.square(t)).astype(complex)
    phi = _COORDINATE_CF[spec.kind]
    return _over_t(t, spec.n, lambda tb: phi(tb * theta.coords).prod(axis=1))


# ---------------------------------------------------------------------------
# Built-in catalog
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def spiked_eigenvalues(n: int) -> tuple[float, ...]:
    """Eigenvalue 2 first, the rest 1, rescaled so that the sum is n."""
    eig = np.ones(n)
    eig[0] = 2.0
    eig *= n / eig.sum()
    return tuple(float(v) for v in eig)


def built_in_spec(name: str, n: int) -> SystemSpec:
    """Construct a catalog system by CLI name: a kind or its short name."""
    name = name.lower()
    kind = KIND_OF_SHORT_NAME.get(name, name)
    if kind not in KINDS:
        raise ConfigurationError(f"unknown system name {name!r}")
    return SystemSpec(kind=kind, n=n)


def default_catalog(n: int = 64) -> list[SystemSpec]:
    """The systems exercised by the verification suites, one per kind.

    Walsh takes n - 1, the 2^m - 1 shape: all nonempty characters of a
    minimal cube.
    """
    return [SystemSpec(kind=kind, n=n - 1 if kind == "walsh" else n) for kind in KINDS]
