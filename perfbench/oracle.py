"""60-digit mpmath reference for the continued resonance energy.

Evaluates E(F) = e0 (1 + h4 z G 2F1(h1, h2; c; 1 + h3 z)), z = (F/4)^2,
c = h1 + h2 + l, G = Gamma(l+h1) Gamma(l+h2) / Gamma(l+h1+h2), from a fitted
model's parameters.  On the cut (real argument x > 1) the imaginary part is
taken from the exact discontinuity, DLMF 15.2.3,

    Im 2F1(a, b; c; x + i0) = pi Gamma(c) / (Gamma(a) Gamma(b) Gamma(mu+1))
                              (x - 1)^mu 2F1(c-a, c-b; mu+1; 1-x),

with mu = c - a - b, which holds when the function is real below the cut
(real c, upper parameters real or a conjugate pair), so that the two cut
sides are complex conjugates.  No i*eps nudge is used: it is wrong by orders
of magnitude once Gamma is tiny.  As in the library, the decaying side
(Im E <= 0) is the physical one.
"""

from __future__ import annotations

import mpmath

DIGITS = 60


class OracleInapplicable(ValueError):
    """The model's 2F1 is not real below the cut, so 15.2.3 alone does not
    fix both sides."""


def oracle_energy(model, field: float) -> complex:
    """Reference E = Delta - i Gamma/2 at one field, rounded to complex."""
    mp = mpmath.mp
    with mpmath.workdps(DIGITS):
        h1 = mpmath.mpc(model.h1.real, model.h1.imag)
        h2 = mpmath.mpc(model.h2.real, model.h2.imag)
        h3 = mpmath.mpc(model.h3.real, model.h3.imag)
        h4 = mpmath.mpc(model.h4.real, model.h4.imag)
        l = mpmath.mpf(model.l)
        e0 = mpmath.mpf(model.e0)
        f = mpmath.mpf(field)
        if f == 0:
            return complex(model.e0)
        z = (f / 4) ** 2
        c = h1 + h2 + l
        pref = mpmath.gamma(l + h1) * mpmath.gamma(l + h2) / mpmath.gamma(c)
        w = 1 + h3 * z
        if w.imag != 0 or w.real <= 1:
            value = mpmath.hyp2f1(h1, h2, c, w)
            return complex(e0 * (1 + h4 * z * pref * value))
        symmetric = (h1 == mpmath.conj(h2)
                     or (h1.imag == 0 and h2.imag == 0))
        if not symmetric:
            raise OracleInapplicable(f"h1={model.h1}, h2={model.h2}")
        x = w.real
        mu = l  # c - h1 - h2
        # both cut sides share the real part; mpmath returns one of them
        re_f = mpmath.re(mpmath.hyp2f1(h1, h2, c, x))
        im_f = mpmath.re(
            mp.pi * mpmath.gamma(c)
            / (mpmath.gamma(h1) * mpmath.gamma(h2) * mpmath.gamma(mu + 1))
            * (x - 1) ** mu
            * mpmath.hyp2f1(c - h1, c - h2, mu + 1, 1 - x))
        for side in (-1, 1):
            energy = e0 * (1 + h4 * z * pref * mpmath.mpc(re_f, side * im_f))
            if energy.imag <= 0:
                return complex(energy)
        return complex(energy)
