"""Checks of the program's outputs that share no code with beamlcp.

``w = q + M z`` is recomputed in NumPy from the problem payload (the beam
flexibility matrix from the closed-form influence function), and signs and
complementarity are tested at the CLI's default tolerance
``1e-8 * (1 + max|q|)``, with the gap scaled by ``1 + max|q| + max|z|`` as
the CLI does.
"""

from __future__ import annotations

import numpy as np

from inputs import Problem


def _influence(x, a, length, ei):
    """Simply supported beam: deflection at x under a unit load at a."""
    lo, hi = np.minimum(x, a), np.maximum(x, a)
    b = length - hi
    return b * lo * (length * length - b * b - lo * lo) / (6.0 * length * ei)


def contact_data(p: Problem):
    """(K, q_tilde, y_star) of a contact or beam problem."""
    pl = p.payload
    if p.kind == "contact":
        return np.array(pl["K"]), np.array(pl["q_tilde"]), np.array(pl["y_star"])
    xs = np.array([s["position"] for s in pl["stabilizers"]])
    K = _influence(xs[:, None], xs[None, :], pl["length"], pl["ei"])
    q_tilde = np.zeros(xs.size)
    for load in pl["loads"]:
        q_tilde += load["magnitude"] * _influence(xs, load["position"], pl["length"], pl["ei"])
    return K, q_tilde, np.array([s["gap"] for s in pl["stabilizers"]])


def q_and_w(p: Problem, z: np.ndarray):
    """The problem's q and w = q + M z, with M applied block by block."""
    if p.kind == "general":
        q = np.array(p.payload["q"])
        return q, q + np.array(p.payload["M"]) @ z
    if p.kind in ("contact", "beam"):
        K, q_tilde, y = contact_data(p)
        n = y.size
        kd = K @ (z[:n] - z[n:])
        return (np.concatenate([q_tilde + y, -q_tilde + y]),
                np.concatenate([q_tilde + y + kd, -q_tilde + y - kd]))
    qs, ws, nets = [], [], []
    offset = 0
    for blk in p.payload["blocks"]:
        n = len(blk["q1"])
        nets.append(z[offset:offset + n] - z[offset + n:offset + 2 * n])
        shift = np.array(blk["K"]) @ nets[-1]
        for cp in blk["couplings"]:
            shift += np.array(cp["Ktilde"]) @ nets[cp["j"]]
        q1, q2 = np.array(blk["q1"]), np.array(blk["q2"])
        qs += [q1, q2]
        ws += [q1 + shift, q2 - shift]
        offset += 2 * n
    return np.concatenate(qs), np.concatenate(ws)


def gap_sums(p: Problem) -> np.ndarray:
    """gamma_l + gamma_u per contact index: 2 y*, or q1 + q2 per cascade block."""
    if p.kind == "cascade":
        return np.concatenate([np.array(b["q1"]) + np.array(b["q2"]) for b in p.payload["blocks"]])
    return 2.0 * contact_data(p)[2]


def solution_errors(p: Problem, z, w_reported=None) -> list[str]:
    """Why z is not a solution of p at the CLI's default tolerance (empty if it is)."""
    z = np.asarray(z, dtype=np.float64)
    q, w = q_and_w(p, z)
    tol = 1e-8 * (1.0 + np.abs(q).max())
    scale = 1.0 + np.abs(q).max() + np.abs(z).max(initial=0.0)
    errors = []
    if z.min() < -tol:
        errors.append(f"z negative: {z.min():.3e}")
    if w.min() < -tol:
        errors.append(f"w negative: {w.min():.3e}")
    if abs(z @ w) > tol * scale:
        errors.append(f"complementarity gap {z @ w:.3e}")
    if w_reported is not None:
        diff = np.abs(np.asarray(w_reported) - w).max()
        if diff > tol * scale:
            errors.append(f"reported w differs from q + M z by {diff:.3e}")
    return errors


def gap_identity(p: Problem, contact_section: dict) -> tuple[bool, bool]:
    """(holds at the CLI tolerance, holds bit-exactly as gamma_u == 2 y* - gamma_l)."""
    gl = np.array(contact_section["gamma_l"])
    gu = np.array(contact_section["gamma_u"])
    sums = gap_sums(p)
    tol = 1e-8 * (1.0 + np.abs(sums).max())
    return bool(np.abs(gl + gu - sums).max() <= tol), bool(np.array_equal(sums - gl, gu))
