"""Per-forecaster error history and bias estimation.

The ledger keeps exact integer sums of signed errors (cents) together with
counts, so incremental updates equal batch recomputation bit for bit; the
division happens only at query time. The key granularity (identity-firm,
identity-only, firm-only, global, or a half/half blend) is a configuration
switch, not a separate code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

GRANULARITIES = ("identity_firm", "identity", "firm", "global")


def blended_bias(firm_bias: float, identity_bias: float, lam: float = 0.5) -> float:
    """Convex blend of a firm-level and an identity-level bias estimate."""
    return lam * firm_bias + (1.0 - lam) * identity_bias


@dataclass
class ErrorLedger:
    """Running signed-error sums under one key granularity."""

    granularity: str = "identity_firm"
    _sums: dict = field(default_factory=dict)
    _counts: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {self.granularity!r}")

    def _key(self, identity: str, firm: str):
        if self.granularity == "identity_firm":
            return (identity, firm)
        if self.granularity == "identity":
            return identity
        if self.granularity == "firm":
            return firm
        return "*"

    def record(self, identity: str, firm: str, err_cents: int) -> None:
        key = self._key(identity, firm)
        self._sums[key] = self._sums.get(key, 0) + err_cents
        self._counts[key] = self._counts.get(key, 0) + 1

    def bias(self, identity: str, firm: str) -> float:
        key = self._key(identity, firm)
        n = self._counts.get(key, 0)
        if n == 0:
            return 0.0
        return self._sums[key] / n


class BiasTracker:
    """Mode-facing bias lookup; handles the half/half blend as two ledgers."""

    def __init__(self, key: str = "identity_firm"):
        self.key = key
        if key == "half":
            self._firm = ErrorLedger("firm")
            self._ident = ErrorLedger("identity")
            self._ledgers = (self._firm, self._ident)
        else:
            self._ledgers = (ErrorLedger(key),)

    def record(self, identity: str, firm: str, err_cents: int) -> None:
        for ledger in self._ledgers:
            ledger.record(identity, firm, err_cents)

    def bias(self, identity: str, firm: str) -> float:
        if self.key == "half":
            return blended_bias(self._firm.bias(identity, firm), self._ident.bias(identity, firm))
        return self._ledgers[0].bias(identity, firm)


@dataclass
class HistoryLedger:
    """Per (identity, firm) coverage count and absolute-error history.

    The count is the number of prior recorded predictions (the experience
    variable); the running mean of recorded absolute adjusted errors is the
    past-accuracy variable.
    """

    _counts: dict = field(default_factory=dict)
    _aae_sums: dict = field(default_factory=dict)

    def record(self, identity: str, firm: str, aae: float) -> None:
        key = (identity, firm)
        self._counts[key] = self._counts.get(key, 0) + 1
        self._aae_sums[key] = self._aae_sums.get(key, 0.0) + aae

    def experience(self, identity: str, firm: str) -> int:
        return self._counts.get((identity, firm), 0)

    def mean_abs_error(self, identity: str, firm: str) -> float:
        key = (identity, firm)
        n = self._counts.get(key, 0)
        if n == 0:
            raise RuntimeError(f"no prior history for {key}; upstream filtering should prevent this")
        return self._aae_sums[key] / n
