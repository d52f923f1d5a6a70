"""GenConfig / Dist / FaultMix: draws, validation, canonical JSON."""

import pytest

from repro.gen.config import Dist, FaultMix, GenConfig
from repro.sim.rng import RandomStream


class TestDist:
    def test_constant_ignores_the_stream(self):
        dist = Dist.constant(3.5)
        stream = RandomStream(seed=1, path="t")
        assert dist.draw(stream) == 3.5
        # Drawing twice from the same stream state stays 3.5: no state
        # is consumed, so constants are substream-layout neutral.
        assert dist.draw(stream) == 3.5

    def test_uniform_respects_bounds(self):
        dist = Dist.uniform(-2.0, 2.0)
        stream = RandomStream(seed=9, path="t")
        draws = [dist.draw(stream.child(str(i))) for i in range(50)]
        assert all(-2.0 <= value <= 2.0 for value in draws)
        assert len(set(draws)) > 1

    def test_gauss_is_seed_deterministic(self):
        dist = Dist.gauss(10.0, 2.0)
        first = dist.draw(RandomStream(seed=4, path="t"))
        second = dist.draw(RandomStream(seed=4, path="t"))
        assert first == second

    def test_choice_draws_from_options(self):
        dist = Dist.choice([1.0, 2.0, 4.0])
        stream = RandomStream(seed=2, path="t")
        draws = {dist.draw(stream.child(str(i))) for i in range(30)}
        assert draws <= {1.0, 2.0, 4.0}

    @pytest.mark.parametrize("bad", [
        dict(kind="zipf"),
        dict(kind="uniform", low=2.0, high=1.0),
        dict(kind="gauss", sigma=-1.0),
        dict(kind="choice", options=()),
    ])
    def test_invalid_distributions_rejected(self, bad):
        with pytest.raises(ValueError):
            Dist(**bad)

    @pytest.mark.parametrize("dist", [
        Dist.constant(1.5),
        Dist.uniform(-3.0, 3.0),
        Dist.gauss(0.0, 100.0),
        Dist.choice([5.0, 7.0]),
    ])
    def test_json_roundtrip(self, dist):
        assert Dist.from_json(dist.to_json()) == dist


class TestFaultMix:
    def test_default_is_benign(self):
        assert FaultMix().benign

    def test_any_density_breaks_benign(self):
        assert not FaultMix(node_density=0.1).benign
        assert not FaultMix(channel_drop=0.01).benign
        assert not FaultMix(coupler_faults=("coupler_out_of_slot",
                                            "none")).benign
        assert FaultMix(coupler_faults=("none", "none")).benign

    def test_density_range_validated(self):
        with pytest.raises(ValueError, match="node_density"):
            FaultMix(node_density=1.5)

    def test_json_roundtrip(self):
        mix = FaultMix(node_density=0.25, node_types=("sos_signal",),
                       coupler_faults=("none", "coupler_out_of_slot"),
                       channel_drop=0.01)
        assert FaultMix.from_json(mix.to_json()) == mix


class TestGenConfig:
    def test_json_roundtrip(self):
        config = GenConfig(name="t", nodes=32, topology="bus", seed=11,
                           ppm=Dist.uniform(-200.0, 200.0),
                           power_on_delay=Dist.uniform(0.0, 40.0),
                           faults=FaultMix(node_density=0.1))
        assert GenConfig.loads(config.dumps()) == config

    def test_dumps_is_byte_identical(self):
        config = GenConfig(nodes=64, seed=7)
        assert config.dumps() == GenConfig(nodes=64, seed=7).dumps()
        assert config.dumps().endswith("\n")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            GenConfig.from_json({"nodes": 4, "toplogy": "star"})

    @pytest.mark.parametrize("key,value", [
        ("nodes", "x"), ("nodes", True), ("nodes", 4.0),
        ("seed", "x"), ("seed", False), ("modes", True),
        ("payload_frame_bits", "2076"),
        ("name", 3), ("topology", None), ("authority", 1),
        ("node_prefix", ["N"]),
        ("shuffle_slots", 1), ("shuffle_slots", "yes"),
        ("slot_duration", "1.5"), ("slot_duration", True),
    ])
    def test_field_types_validated(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            GenConfig.from_json({key: value})

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="nodes"):
            GenConfig(nodes=0)
        with pytest.raises(ValueError, match="topology"):
            GenConfig(topology="ring")
        with pytest.raises(ValueError, match="modes"):
            GenConfig(modes=0)

    def test_with_nodes_and_seed_keep_everything_else(self):
        config = GenConfig(name="t", nodes=4, seed=3,
                           ppm=Dist.uniform(-50.0, 50.0))
        grown = config.with_nodes(16).with_seed(9)
        assert grown.nodes == 16
        assert grown.seed == 9
        assert grown.ppm == config.ppm
        assert grown.name == config.name

    def test_file_roundtrip(self, tmp_path):
        config = GenConfig(nodes=8, seed=5)
        path = tmp_path / "cluster.json"
        config.dump(path)
        assert GenConfig.load(path) == config
