"""Self-contained special functions for the statistical tests.

The p-value machinery needs only two functions: the complementary error
function and the regularized upper incomplete gamma function. Both are
implemented here from standard, documented expansions rather than pulled
from platform math libraries, so reported p-values are identical across
platforms:

* ``log_gamma``: Lanczos approximation, g = 607/128, 15 coefficients
  (near machine precision over the positive reals).
* ``reg_gamma_upper`` (Q): 1 - P by the power series for P when
  x < a + 1, the modified Lentz continued fraction for Q otherwise.
  Iteration stops at a 1e-16 relative term, giving at least 1e-12
  absolute accuracy (the test suite checks this against an independent
  reference).
* ``erfc(x)`` is then exactly Q(1/2, x**2) for x >= 0, reflected via
  erfc(-x) = 2 - erfc(x).
"""

from __future__ import annotations

import math

from .errors import DomainError

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEFFS = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

_EPS = 1e-16
_TINY = 1e-300
_MAX_ITER = 1000


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    acc = _LANCZOS_COEFFS[0]
    for i, coeff in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += coeff / (x + i - 1.0)
    t = x - 0.5 + _LANCZOS_G
    return (x - 0.5) * math.log(t) - t + math.log(math.sqrt(2.0 * math.pi) * acc)


def _gamma_series(a: float, x: float) -> float:
    """P(a, x) by power series; valid for x < a + 1."""
    term = 1.0 / a
    total = term
    n = a
    for _ in range(_MAX_ITER):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - log_gamma(a))


def _gamma_cf(a: float, x: float) -> float:
    """Q(a, x) by modified Lentz continued fraction; valid for x >= a + 1."""
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return math.exp(-x + a * math.log(x) - log_gamma(a)) * h


def reg_gamma_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    if a <= 0.0:
        raise DomainError(f"shape parameter must be positive, got {a}")
    if x < 0.0:
        raise DomainError(f"argument must be non-negative, got {x}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_cf(a, x)


def erfc(x: float) -> float:
    """Complementary error function via Q(1/2, x**2)."""
    if x == 0.0:
        return 1.0
    if x > 0.0:
        return reg_gamma_upper(0.5, x * x)
    return 2.0 - reg_gamma_upper(0.5, x * x)
