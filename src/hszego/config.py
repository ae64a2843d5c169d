"""Run configuration: a flat ``key = value`` text format with dotted sections.

Every key, default, and unit is documented in the README.  Unknown keys are
rejected so typos fail loudly instead of silently using defaults.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np

from .core import (
    GridSpec, HeisenbergPoint, LambdaSignature, ScalarField, UsageError, finite_float, norm,
    text_value,
)
from .phase import PhaseChoice, fio_rule, phase
from .transform import WavePacketSpec, make_wave_packet

__all__ = ["RunConfig", "parse_flat_config", "decode_text"]


def decode_text(data: bytes, where: str, first_line: int) -> str:
    """``data`` as UTF-8 text; an error names ``where`` and the line.

    ``first_line`` is the file's line number of the first line of ``data``.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = first_line + data.count(b"\n", 0, exc.start)
        raise UsageError(f"{where}: line {lineno} is not UTF-8 text") from None


def parse_flat_config(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines of a config file or field file header.

    '#' starts a comment and blank lines are ignored; an error names the line.
    """
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if not key:
            raise UsageError(f"line {lineno}: empty key")
        if key in out:
            raise UsageError(f"line {lineno}: duplicate key {key!r}")
        out[key] = val.strip()
    return out


def _floats(text: str) -> tuple[float, ...]:
    items = [tok for tok in text.split(",") if tok.strip()]
    return tuple(finite_float(tok) for tok in items)


def _ints(text: str) -> tuple[int, ...]:
    items = [tok for tok in text.split(",") if tok.strip()]
    return tuple(int(tok) for tok in items)


def _non_negative_int(text: str) -> int:
    v = int(text)
    if v < 0:
        raise ValueError(f"{v} is negative")
    return v


#: the most sample pairs ``kernel-table`` tabulates (~45 MB of csv)
_KERNEL_TABLE_MAX_COUNT = 100_000


#: the most nodes of ``kernel-table``'s quadrature rule at one sample pair
#: (~80 MB of working arrays); the default config's largest rule has 600
_KERNEL_TABLE_MAX_NODES = 1_000_000


def _table_count(text: str) -> int:
    v = _non_negative_int(text)
    if v > _KERNEL_TABLE_MAX_COUNT:
        raise ValueError(f"{v} is above {_KERNEL_TABLE_MAX_COUNT}")
    return v


#: the top-level keys as (key, RunConfig field, parser), in the order they
#: are written; every one of them enters the report's config digest
_KEYS = (
    ("lambdas", "lambdas", _floats),
    ("epsilon", "epsilon", finite_float),
    ("seed", "seed", _non_negative_int),
    ("kernel_table.count", "kernel_table_count", _table_count),
    ("kernel_table.diag_eps", "kernel_table_diag_eps", _floats),
)

#: the ``packet.N.name`` keys: WavePacketSpec fields with their parsers;
#: ``alpha``, ``t_low`` and ``t_high`` have no default and must be given
_PACKET_KEYS = (
    ("alpha", _ints),
    ("t_low", finite_float),
    ("t_high", finite_float),
    ("conjugated_axes", _ints),
    ("order", int),
    ("vertical_sign", int),
)


def _default_packets() -> tuple[WavePacketSpec, ...]:
    # order-6 envelopes of width >= 2.2 keep the periodic wrap-around of the
    # synthesized packets far below the wrap budget on the default vertical box
    return (
        WavePacketSpec(alpha=(0,), t_low=1.0, t_high=3.2, order=6),
        WavePacketSpec(alpha=(1,), t_low=1.0, t_high=3.2, order=6),
        WavePacketSpec(alpha=(2,), t_low=1.0, t_high=4.0, order=6),
        WavePacketSpec(alpha=(0,), t_low=2.0, t_high=4.2, order=6),
        WavePacketSpec(alpha=(1,), t_low=2.0, t_high=4.6, order=6),
    )


@dataclass(frozen=True)
class RunConfig:
    """Everything a verification or CLI run needs, with desk-scale defaults.

    The acceptance budgets and ``grid2`` are constants of the gate, not
    settings of a run.
    """

    #: acceptance budgets; ``>=`` comparators mean larger measured values pass
    tolerances = MappingProxyType(
        {
            "gamma_moment": 1e-9,
            "kernel_fio_agreement": 1e-6,
            "phase_identity": 1e-12,
            "gaussian_reproducing": 1e-6,
            "slice_reproduction": 1e-4,
            "slice_annihilation": 1e-4,
            "slice_contraction": 1e-6,
            "slice_idempotency": 2e-4,
            "parseval": 1e-8,
            "hardy_reproduction": 1e-3,
            "negative_frequency": 1e-3,
            "idempotency": 2e-3,
            "self_adjointness": 1e-3,
            "pairing_route": 1e-4,
            "direct_route": 5e-3,
            "form_reproduction": 1e-3,
            "witness_ratio": 1e3,
            "finite_match": 1e-6,
            "residual_order": 3.5,
            "noise_margin": 1e3,
            "wrap_share": 1e-8,
        }
    )

    #: the n=2 grid of the form-level criteria (C00's window check and C10)
    grid2 = GridSpec(3.5, 17, 30.0, 128)

    lambdas: tuple[float, ...] = (1.0,)
    epsilon: float = 0.5
    seed: int = 20260808
    grid: GridSpec = field(default_factory=lambda: GridSpec(4.0, 33, 16.0, 128))
    packets: tuple[WavePacketSpec, ...] = field(default_factory=_default_packets)
    kernel_table_count: int = 8
    kernel_table_diag_eps: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0)

    def __post_init__(self):
        if not self.lambdas:
            raise UsageError("config key 'lambdas': needs at least one entry")
        if not 0 < self.epsilon < math.inf:
            raise UsageError("epsilon must be finite and > 0")
        if not all(0 < eps < math.inf for eps in self.kernel_table_diag_eps):
            raise UsageError(
                "config key 'kernel_table.diag_eps': every entry must be finite and > 0, "
                f"got {self.kernel_table_diag_eps}"
            )
        # kernel-table's rows are c0 n! (-i(phi + i eps))^-(n+1) at points with
        # |Re z_j|, |Im z_j| <= 1.5 and |x_last| <= 2, where |phi| <= 4 + 27 sum |lam_j|,
        # and c0 n! eps^-(n+1) on the diagonal: prod |lam_j| n! (above c0 n!)
        # and the (n+1)-th powers of twice that bound and of twice eps must be
        # finite, and each diagonal eps^(n+1) a normal float, or a row is nan
        n, fmin, fmax = len(self.lambdas), sys.float_info.min, sys.float_info.max
        reach = 4.0 + 27.0 * sum(map(abs, self.lambdas))
        checks = [("lambdas", self.lambdas, [*map(abs, self.lambdas), *range(1, n + 1)], 0.0),
                  ("lambdas", self.lambdas, [2.0 * reach] * (n + 1), 0.0),
                  ("epsilon", self.epsilon, [2.0 * self.epsilon] * (n + 1), 0.0)]
        checks += [("kernel_table.diag_eps", eps, [eps] * (n + 1), fmin) for eps in self.kernel_table_diag_eps]
        for key, value, factors, low in checks:
            if not low <= math.prod(factors) <= fmax:
                raise UsageError(f"config key {key!r}: {value!r} is out of range for the kernel-table rows at n={n}")
        # kernel-table's rule at a sample pair has ~10 |Re phi| t_max / (2 pi) nodes,
        # t_max = 40 / (Im phi + eps), and Im phi grows with lambdas: small lambdas and
        # epsilon together ask for a rule no memory holds.  The pairs' rules are sized,
        # before anything is allocated, only where |Re phi| <= reach and Im phi >= 0
        # leave room above the cap
        cap = _KERNEL_TABLE_MAX_NODES
        if 10.0 * reach * 40.0 / (2.0 * math.pi * self.epsilon) + 16 > cap:
            sig = self.sig
            nodes = max((fio_rule(phase(PhaseChoice.MINUS, x, y, sig), self.epsilon)[1]
                         for x, y in self.kernel_table_pairs()), default=0)
            if nodes > cap:
                raise UsageError(
                    f"config keys 'lambdas' and 'epsilon': kernel-table's quadrature rule at a "
                    f"sample pair needs {nodes} nodes, above {cap}"
                )

    @property
    def sig(self) -> LambdaSignature:
        return LambdaSignature(self.lambdas)

    def kernel_table_pairs(self) -> list[tuple[HeisenbergPoint, HeisenbergPoint]]:
        """The ``kernel_table.count`` random sample pairs (x, y) of ``kernel-table``, drawn from ``seed``.

        Each pair draws z, then w (the real and imaginary part of each
        entry uniform on [-1.5, 1.5]), then x_last and y_last (uniform on [-2, 2]).
        """
        rng = np.random.default_rng(self.seed)

        def spatial():
            return tuple(complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in self.lambdas)

        pairs = []
        for _ in range(self.kernel_table_count):
            z, w = spatial(), spatial()
            pairs.append((HeisenbergPoint(z, rng.uniform(-2, 2)), HeisenbergPoint(w, rng.uniform(-2, 2))))
        return pairs

    def packet_field(self, i: int) -> ScalarField:
        """Packet ``i`` (1-based) synthesized on ``grid``; an error names the packet.

        A packet whose norm is not finite (a large ``alpha`` on a wide grid
        overflows) is refused, naming its ``alpha`` key.
        """
        try:
            # an overflow makes the norm inf or nan, which is refused below
            with np.errstate(over="ignore", invalid="ignore"):
                u = make_wave_packet(self.packets[i - 1], self.sig, self.grid)
                finite = math.isfinite(norm(u))
        except UsageError as exc:
            raise UsageError(f"packet {i}: {exc}") from None
        if not finite:
            raise UsageError(f"config key 'packet.{i}.alpha': the packet's norm overflows")
        return u

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        return cls.from_mapping(parse_flat_config(text))

    @classmethod
    def from_path(cls, path) -> "RunConfig":
        with open(path, "rb") as fh:
            return cls.from_text(decode_text(fh.read(), f"config file {str(path)!r}", 1))

    @classmethod
    def from_mapping(cls, flat: dict[str, str]) -> "RunConfig":
        flat = dict(flat)

        def parse(key, conv):
            try:
                return conv(flat.pop(key))
            except ValueError as exc:
                raise UsageError(f"config key {key!r}: {exc}") from None

        def given(prefix: str, keys) -> dict:
            return {
                name: parse(prefix + name, conv) for name, conv in keys if prefix + name in flat
            }

        def packet(pid: int, keys: dict) -> WavePacketSpec:
            for name in ("alpha", "t_low", "t_high"):
                if name not in keys:
                    raise UsageError(f"config lacks key 'packet.{pid}.{name}'")
            try:
                return WavePacketSpec(**keys)
            except UsageError as exc:
                raise UsageError(f"packet {pid}: {exc}") from None

        # an absent key keeps the default of RunConfig, GridSpec or WavePacketSpec
        kwargs = {name: parse(key, conv) for key, name, conv in _KEYS if key in flat}
        kwargs["grid"] = replace(cls().grid, **given("grid.", GridSpec.TEXT_KEYS))
        packet_ids = set()
        for key in flat:
            if key.startswith("packet."):
                pid = key.split(".")[1]
                if not re.fullmatch(r"[1-9][0-9]*", pid):
                    raise UsageError(
                        f"config key {key!r}: packet id {pid!r} is not a positive integer"
                    )
                packet_ids.add(int(pid))
        gap = next((i for i in range(1, len(packet_ids) + 1) if i not in packet_ids), None)
        if gap is not None:
            raise UsageError(
                f"config lacks keys 'packet.{gap}.*': packet ids run from 1 without gaps, "
                f"and 'packet.{max(packet_ids)}' is given"
            )
        packets = tuple(
            packet(pid, given(f"packet.{pid}.", _PACKET_KEYS)) for pid in sorted(packet_ids)
        )
        if packets:
            kwargs["packets"] = packets

        if flat:
            raise UsageError(f"unknown config keys: {sorted(flat)}")
        cfg = cls(**kwargs)
        n = len(cfg.lambdas)
        cfg.grid.require_representable(n, "config keys")
        # packets given by keys must fit the lambdas, unless they are the defaults:
        # n=1 packets that other lambdas leave unused and canonical_text writes as keys
        for pid, spec in zip(sorted(packet_ids), () if packets == _default_packets() else packets):
            if len(spec.alpha) != n:
                raise UsageError(f"config key 'packet.{pid}.alpha': needs one entry per lambda")
            if not all(1 <= a <= n for a in spec.conjugated_axes):
                raise UsageError(f"config key 'packet.{pid}.conjugated_axes': axes lie in 1..{n}")
        return cfg

    def canonical_text(self) -> str:
        """Deterministic serialization (used for the report's config digest)."""
        lines = [f"{key} = {text_value(getattr(self, name))}" for key, name, _ in _KEYS]
        lines += self.grid.text_lines("grid")
        for i, p in enumerate(self.packets, start=1):
            lines += [
                f"packet.{i}.{name} = {text_value(getattr(p, name))}" for name, _ in _PACKET_KEYS
            ]
        return "\n".join(lines) + "\n"
