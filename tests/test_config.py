"""Tests for engine configuration validation."""

import pytest

from repro import ConfigError, EngineConfig
from repro.config import CostModel


class TestValidation:
    def test_defaults_are_valid(self):
        config = EngineConfig()
        assert config.num_machines == 4

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_machines", 0),
            ("workers_per_machine", 0),
            ("batch_size", 0),
            ("rpq_flow_depth", -1),
            ("rpq_shared_credits", 0),
            ("rpq_overflow_per_depth", -1),
            ("quantum", 0.0),
            ("net_delay_rounds", -1),
            ("max_rounds", 0),
            ("receive_priority", "random"),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            EngineConfig(**{field: value})

    def test_buffer_minimum_scales_with_machines(self):
        # The paper: each machine needs at least two buffers per peer.
        with pytest.raises(ConfigError):
            EngineConfig(num_machines=16, buffers_per_machine=8)
        EngineConfig(num_machines=16, buffers_per_machine=32)

    def test_with_override(self):
        base = EngineConfig()
        tuned = base.with_(num_machines=8, batch_size=64)
        assert tuned.num_machines == 8
        assert tuned.batch_size == 64
        assert base.num_machines == 4  # original unchanged (frozen)

    def test_flat_kwargs_still_work_unchanged(self):
        config = EngineConfig(batch_size=16, sanitize=True, deadline=100)
        assert (config.batch_size, config.sanitize, config.deadline) == (
            16, True, 100,
        )

    def test_config_is_frozen(self):
        config = EngineConfig()
        with pytest.raises(Exception):
            config.num_machines = 2

    def test_cost_model_defaults(self):
        cost = CostModel()
        assert cost.edge_traverse == 1.0
        assert cost.index_insert > cost.index_hit > 0

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("edge_traverse", float("nan")),
            ("message_fixed", -50),
            ("receive_context", float("inf")),
            ("output", -0.5),
            ("index_hit", float("-inf")),
        ],
    )
    def test_cost_model_rejects_prices_that_corrupt_virtual_time(self, field, value):
        """A NaN, infinite or negative price made ``cost_units`` NaN,
        infinite or negative and moved the round count while the rows
        stayed right; every price must now be finite and >= 0."""
        with pytest.raises(ConfigError) as excinfo:
            EngineConfig(cost=CostModel(**{field: value}))
        assert f"cost.{field} must be a finite number >= 0 (got {value!r})" in str(
            excinfo.value
        )

    def test_cost_model_zero_price_stays_legal(self):
        # A zero-cost step ends the quantum on that step (golden semantics).
        assert CostModel(output=0.0, filter_eval=0).output == 0.0


class TestValidationMessages:
    @pytest.mark.parametrize(
        ("kwargs", "fragment"),
        [
            ({"num_machines": 0}, "num_machines must be >= 1 (got 0)"),
            ({"quantum": -1}, "quantum must be positive (got -1)"),
            ({"batch_size": 0}, "batch_size must be >= 1 (got 0)"),
            ({"net_delay_rounds": -2}, "net_delay_rounds must be >= 0 (got -2)"),
            (
                {"receive_priority": "lifo"},
                "receive_priority must be 'depth' or 'fifo' (got 'lifo')",
            ),
            (
                {"max_concurrent_queries": 0},
                "max_concurrent_queries must be >= 1 (got 0)",
            ),
            (
                {"admission_queue_limit": -1},
                "admission_queue_limit must be >= 0 (got -1)",
            ),
            ({"deadline": 0}, "deadline must be None or a positive int"),
            (
                {"stall_limit": 5},
                "stall_limit must be >= 2 STATUS round trips, 2 * (2 * "
                "net_delay_rounds + 1) = 6 (got 5 with net_delay_rounds=1)",
            ),
            (
                {"use_reachability_index": 1},
                "use_reachability_index must be None, True, or False (got 1)",
            ),
            (
                {"use_reachability_index": "no"},
                "use_reachability_index must be None, True, or False (got 'no')",
            ),
            # 1 == True and 0 == False: the type is checked, not the value.
            (
                {"reliable_transport": 1},
                "reliable_transport must be None, True, or False (got 1)",
            ),
            (
                {"reliable_transport": 0},
                "reliable_transport must be None, True, or False (got 0)",
            ),
            ({"membership": 1}, "membership must be None, True, or False (got 1)"),
            ({"membership": 1.0}, "membership must be None, True, or False (got 1.0)"),
        ],
    )
    def test_errors_name_field_and_value(self, kwargs, fragment):
        with pytest.raises(ConfigError) as excinfo:
            EngineConfig(**kwargs)
        assert fragment in str(excinfo.value)

    def test_stall_limit_names_both_values(self):
        with pytest.raises(ConfigError, match="stall_limit.*net_delay_rounds=3"):
            EngineConfig(stall_limit=13, net_delay_rounds=3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"net_delay_rounds": 1.5},
            {"suspect_after": 2.5},
            {"max_rounds": 10.5},
            {"stall_limit": 99.5},
            {"confirm_after": True},
            {"num_machines": 4.0},
            {"batch_size": "32"},
        ],
    )
    def test_round_and_size_counts_must_be_ints(self, kwargs):
        # A fractional delay or interval used to be accepted and run as
        # whatever the round arithmetic made of it (1.5 delayed by 2).
        ((name, value),) = kwargs.items()
        with pytest.raises(ConfigError) as excinfo:
            EngineConfig(**kwargs)
        assert str(excinfo.value) == f"{name} must be an int (got {value!r})"

    @pytest.mark.parametrize(
        "name", ["deadline", "workers", "retransmit_timeout_rounds", "schedule_seed"]
    )
    def test_optional_counts_reject_a_bool(self, name):
        # isinstance(True, int) holds, so these checks used to pass a bool.
        with pytest.raises(ConfigError, match=rf"^{name} must be None.*\(got True\)$"):
            EngineConfig(**{name: True})

    def test_every_int_field_is_checked(self):
        from dataclasses import fields

        for f in fields(EngineConfig):
            if f.type is int:
                with pytest.raises(ConfigError, match=f.name):
                    EngineConfig(**{f.name: float(getattr(EngineConfig(), f.name))})
