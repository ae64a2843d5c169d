from dataclasses import FrozenInstanceError

import pytest

from hszego import UsageError, WavePacketSpec
from hszego.config import RunConfig, parse_flat_config


def test_parse_flat_config_basics():
    text = """
    # a comment
    lambdas = 1.0, -2.0
    grid.spatial_points = 17   # trailing comment
    """
    flat = parse_flat_config(text)
    assert flat == {"lambdas": "1.0, -2.0", "grid.spatial_points": "17"}


def test_parse_rejects_malformed():
    with pytest.raises(UsageError):
        parse_flat_config("just a line without equals")
    with pytest.raises(UsageError):
        parse_flat_config("a = 1\na = 2")


def test_defaults_round():
    cfg = RunConfig()
    assert cfg.sig.lambdas == (1.0,)
    assert cfg.grid.spatial_points == 33
    assert cfg.grid2.spatial_points == 17
    assert len(cfg.packets) == 5
    assert cfg.tolerances["hardy_reproduction"] == 1e-3


def test_from_text_overrides():
    cfg = RunConfig.from_text(
        """
        lambdas = 2.0
        epsilon = 0.25
        seed = 7
        grid.spatial_points = 17
        grid.vertical_points = 64
        grid.vertical_radius = 8.0
        packet.1.alpha = 1
        packet.1.t_low = 1.2
        packet.1.t_high = 2.4
        """
    )
    assert cfg.lambdas == (2.0,)
    assert cfg.epsilon == 0.25
    assert cfg.grid.spatial_points == 17
    assert cfg.grid.freq_points == 64
    assert len(cfg.packets) == 1
    assert cfg.packets[0].t_high == 2.4


def test_unknown_keys_rejected():
    with pytest.raises(UsageError):
        RunConfig.from_text("grid.spatial_pionts = 17")
    with pytest.raises(UsageError):
        RunConfig.from_text("tolerance.nonsense = 1.0")


def test_tolerances_are_constants():
    cfg = RunConfig()
    assert cfg.tolerances["wrap_share"] == 1e-8
    with pytest.raises(TypeError):
        cfg.tolerances["wrap_share"] = 1.0
    with pytest.raises(FrozenInstanceError):
        cfg.tolerances = {}
    with pytest.raises(UsageError, match="tolerance.wrap_share"):
        RunConfig.from_text("tolerance.wrap_share = 1.0")
    assert "tolerance" not in cfg.canonical_text()


def test_canonical_text_deterministic():
    a = RunConfig().canonical_text()
    b = RunConfig().canonical_text()
    assert a == b
    assert "jobs" not in a  # worker count must not affect the report digest


def test_empty_text_is_the_default_config():
    # from_text restates no default: an absent key keeps the dataclass's own
    a, b = RunConfig.from_text(""), RunConfig()
    assert a.canonical_text() == b.canonical_text()


def test_packet_keys_default_to_wave_packet_spec():
    cfg = RunConfig.from_text("packet.1.alpha = 1\npacket.1.t_low = 1.2\npacket.1.t_high = 2.4")
    assert cfg.packets == (WavePacketSpec(alpha=(1,), t_low=1.2, t_high=2.4),)


def test_canonical_text_reads_back_unchanged():
    text = RunConfig.from_text("grid.spatial_radius = 3.25\nlambdas = -1.0, 2.0").canonical_text()
    assert RunConfig.from_text(text).canonical_text() == text


def test_packet_ids_order_as_integers():
    text = "".join(
        f"packet.{i}.alpha = 0\npacket.{i}.t_low = 1.0\npacket.{i}.t_high = {1.0 + i}\n"
        for i in (11, 2, 10, 1, 9, 3, 4, 5, 6, 7, 8)
    )
    cfg = RunConfig.from_text(text)
    # ids 1..11 without a gap, in integer order (as text, 10 would come before 2)
    assert [p.t_high for p in cfg.packets] == [1.0 + i for i in range(1, 12)]
    assert "packet.11.t_high = 12.0" in cfg.canonical_text()
