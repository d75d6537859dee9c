"""What scheme f conserves of exp, checked on a fixed seeded grid.

Each step of f is a chain of U maps around exp(A_1 / n), and U maps keep
two facts of the exponential that no oracle is needed to check:

- the generic norm: N(U_x y) = N(x)^2 N(y) and N(exp a) = exp(T(a)), so
  log N(f_n(A)) = sum_j T(A_j), where N is the product of the spectrum
  and T its sum;
- time reversal: U_x(y)^-1 = U_{x^-1}(y^-1), so the step at -A is the
  inverse of the step at A, and f_n(-A) o f_n(A) = 1.

As the product of exponentials by U maps, f_n(A) is also positive: its
smallest eigenvalue is > 0.  Schemes g and h do not keep them in general.
"""

import numpy as np
import pytest

from jbtrotter.algebras import jb_norm, jordan_mul, spectrum, unit
from jbtrotter.trotter import approx_f
from conftest import seeded_elements

NS = (1, 2, 8, 64, 1024)
SEEDS = (0, 1, 2)
TOL = 1e-9


@pytest.mark.parametrize("m", [2, 3, 5])
def test_scheme_f_keeps_the_norm_the_inverse_and_positivity(descriptor, m):
    one = unit(descriptor)
    for seed in SEEDS:
        elems = seeded_elements(descriptor, m, 83 + 10 * m + seed)
        trace = sum(float(np.sum(spectrum(a))) for a in elems)
        for n in NS:
            x = approx_f(elems, n)
            eigs = spectrum(x)
            assert eigs[0] > 0.0, (seed, n)
            assert abs(float(np.sum(np.log(eigs))) - trace) <= TOL, (seed, n)
            back = approx_f([-a for a in elems], n)
            assert jb_norm(jordan_mul(back, x) - one) <= TOL, (seed, n)
