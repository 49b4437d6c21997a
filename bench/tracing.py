"""Spans at the boundaries between finhankel's modules, for traced runs only.

A traced run rebinds, for its duration, the public names through which one
module calls another (``quadrature.bessel_j_grid`` is the name quadrature
calls specfun's kernel by, ``invertibility.hankel_sweep`` the one
invertibility calls the sweep by, and so on), plus the entry points the
benchmark itself calls.  Each call then leaves a span: layer name, start,
end, parent span and operation id.  A layer's self time is its spans'
duration minus that of their direct children.  Untraced runs do not
import this module, so they time the program as shipped.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from finhankel import asymptotics, cli, invertibility, profiles, quadrature


def _bessel_layer(args, kwargs) -> str:
    ld = kwargs.get("longdouble", args[2] if len(args) > 2 else False)
    return "specfun.bessel_ld" if ld else "specfun.bessel_f64"


def _arg1_size(args, kwargs) -> int:
    return int(np.size(args[1]))


def _keep_sweep(tracer, args, out):
    """Three radii per sweep, each at the largest |F| within about two
    oscillation periods, so the oracle comparison is not made at a zero."""
    profile, r = args[0], np.asarray(args[1])
    if profile.vanishes_near_one or r.size < 192:
        return  # the oracle has no closed form for the smooth cutoff
    for start in (r.size // 6, r.size // 2, 5 * r.size // 6):
        i = start + int(np.argmax(np.abs(out[start : start + 64])))
        tracer.kept.append((profile, float(r[i]), complex(out[i])))


_FH, _SWEEP = "quadrature.finite_hankel", "quadrature.hankel_sweep"
_OE, _BE = "profiles.origin_expansion", "profiles.boundary_expansion"

# (module, attribute, layer name or resolver, element counter, result hook)
BOUNDARIES = (
    (quadrature, "bessel_j_grid", _bessel_layer, _arg1_size, None),
    (quadrature, "bessel_j_scaled_grid", _bessel_layer, _arg1_size, None),
    (quadrature, "finite_hankel", _FH, None, None),
    (cli, "finite_hankel", _FH, None, None),
    (invertibility, "hankel_sweep", _SWEEP, _arg1_size, _keep_sweep),
    (asymptotics, "gamma", "specfun.gamma", None, None),
    (asymptotics, "reciprocal_gamma", "specfun.gamma", None, None),
    (asymptotics, "predict", "asymptotics.predict", None, None),
    (asymptotics, "dominance", "asymptotics.dominance", None, None),
    (asymptotics, "origin_expansion", _OE, None, None),
    (asymptotics, "boundary_expansion", _BE, None, None),
    (invertibility, "origin_expansion", _OE, None, None),
    (invertibility, "boundary_expansion", _BE, None, None),
    (cli, "origin_expansion", _OE, None, None),
    (cli, "boundary_expansion", _BE, None, None),
    (profiles, "profile_from_json", "profiles.profile_from_json", None, None),
    (cli, "profile_from_json", "profiles.profile_from_json", None, None),
    (invertibility, "classify", "invertibility.classify", None, None),
    (cli, "classify", "invertibility.classify", None, None),
    (invertibility, "derive_params", "invertibility.derive_params", None, None),
    (invertibility, "combine", "invertibility.combine", None, None),
    (cli, "verify_profile_slow_decrease", "invertibility.verify_profile_slow_decrease", None, None),
    (cli, "main", "cli.main", None, None),
)


class Tracer:
    """Spans kept in memory as [layer, start, end, parent, op, elems]."""

    def __init__(self):
        self.spans: list[list] = []
        self.kept: list[tuple] = []  # sweep samples for the oracle
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, fn, layer, elems, keep):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            name = layer(args, kwargs) if callable(layer) else layer
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                   elems(args, kwargs) if elems else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if keep:
                keep(self, args, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every boundary name for the duration of the block."""
        gone = [f"{mod.__name__}.{attr}" for mod, attr, *_ in BOUNDARIES if not hasattr(mod, attr)]
        if gone:
            raise LookupError(f"boundary names missing from the program: {', '.join(gone)}")
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, *_ in BOUNDARIES]
        try:
            for (mod, attr, layer, elems, keep), (_, _, fn) in zip(BOUNDARIES, saved):
                setattr(mod, attr, self._wrap(fn, layer, elems, keep))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def layers(self) -> dict:
        """{layer: {calls, elems, busy_s, self_s}} over all recorded spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        for (name, t0, t1, _, _, elems), c in zip(self.spans, child):
            st = out.setdefault(name, {"calls": 0, "elems": 0, "busy_s": 0.0, "self_s": 0.0})
            st["calls"] += 1
            st["elems"] += elems
            st["busy_s"] += t1 - t0
            st["self_s"] += t1 - t0 - c
        return out
