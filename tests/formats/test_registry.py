"""Registry behaviour + end-to-end extensibility of the formats backend.

The acceptance criterion for the backend refactor: a brand-new number
system, registered once, must flow through the engines, scalar EMACs,
quantizers, and sweep candidate enumeration without touching any dispatch
site.  ``TestNewFamilyEndToEnd`` does exactly that with a bfloat-style
family.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro import formats
from repro.core import engine_for, scalar_emac_for
from repro.core.positron import PositronNetwork
from repro.fixedpoint import fixed_format
from repro.floatp import float_format
from repro.floatp.format import FloatFormat
from repro.nn.quantize import candidate_configs, quantize_nearest
from repro.posit.format import standard_format


class TestLookup:
    def test_get_by_canonical_name(self):
        assert formats.get("posit8_1").fmt == standard_format(8, 1)
        assert formats.get("float4_3").fmt == float_format(4, 3)
        assert formats.get("fixed8_4").fmt == fixed_format(8, 4)

    def test_get_by_label(self):
        assert formats.get("posit<8,1>").fmt == standard_format(8, 1)
        assert formats.get("float<1,4,3>").fmt == float_format(4, 3)
        assert formats.get("fixed<8,4>").fmt == fixed_format(8, 4)

    def test_round_trips_through_name(self):
        for name in ("posit8_2", "float5_2", "fixed6_3"):
            assert formats.get(name).name == name

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            formats.get("unobtainium8")

    def test_unknown_type(self):
        with pytest.raises(TypeError):
            formats.backend_for("posit8")

    def test_backend_cached(self):
        fmt = standard_format(8, 1)
        assert formats.backend_for(fmt) is formats.backend_for(fmt)

    def test_get_memoized_per_name(self):
        assert formats.get("posit8_1") is formats.get("posit8_1")

    def test_engine_memoized_per_format_key(self):
        from repro.core import engine_for

        fmt = standard_format(8, 1)
        backend = formats.backend_for(fmt)
        assert backend.engine() is backend.engine()
        assert engine_for(fmt) is engine_for(standard_format(8, 1))

    def test_limb_tables_memoized(self):
        backend = formats.get("posit8_1")
        assert backend.limb_tables() is backend.limb_tables()

    def test_families_registered(self):
        assert [f.name for f in formats.families()] == ["posit", "float", "fixed"]

    def test_available_names_match_candidates(self):
        names = formats.available(widths=(8,))
        assert set(names) == {
            formats.backend_for(c.fmt).name for c in candidate_configs(8)
        }


class TestBackendMetadata:
    @pytest.mark.parametrize(
        "name,family,label,width",
        [
            ("posit8_1", "posit", "posit<8,1>", 8),
            ("float4_3", "float", "float<1,4,3>", 8),
            ("fixed5_3", "fixed", "fixed<5,3>", 5),
        ],
    )
    def test_metadata(self, name, family, label, width):
        backend = formats.get(name)
        assert backend.name == name
        assert backend.family == family
        assert backend.label == label
        assert backend.width == width

    def test_factories(self):
        backend = formats.get("posit8_1")
        assert backend.engine().width == 8
        assert backend.make_scalar_emac().width == 8


class TestPatternInputs:
    """``decode_batch`` and ``relu_batch`` check the caller's patterns
    before any cast: a float is refused, not truncated, and a negative or
    too-wide integer is refused, not wrapped onto a valid pattern."""

    @pytest.mark.parametrize("method", ["decode_batch", "relu_batch"])
    @pytest.mark.parametrize("name", ["posit8_1", "float4_3", "fixed8_4"])
    def test_checked_before_any_cast(self, name, method):
        backend = formats.get(name)
        call = getattr(backend, method)
        for bad in (
            np.array([1.7, 2.0]),
            np.array([1, -1]),
            np.array([0, 1 << backend.width]),
            np.array([True, False]),
        ):
            with pytest.raises(ValueError, match="pattern"):
                call(bad)
        every = np.arange(1 << backend.width)
        want = call(every)
        for dtype in (np.uint8, np.int16, np.uint32):
            assert np.array_equal(call(every.astype(dtype)), want, equal_nan=True)
        # NaR and reserved patterns are valid inputs.
        tables = backend.limb_tables()
        invalid = every[tables.invalid] if tables is not None else every[:0]
        if method == "decode_batch":
            assert np.isnan(want[invalid]).all()
        else:
            assert (want[invalid] == 0).all()


@dataclass(frozen=True)
class _BrainFormat(FloatFormat):
    """A 'new' bfloat-style family: float semantics, distinct identity."""

    def __str__(self) -> str:
        return f"brain<{self.we},{self.wf}>"


class _BrainBackend(formats.FloatBackend):
    family = "brain"

    @property
    def name(self) -> str:
        return f"brain{self.fmt.we}_{self.fmt.wf}"


def _parse_brain(name: str):
    if not name.startswith("brain"):
        return None
    try:
        we, wf = name.removeprefix("brain").split("_")
        return _BrainFormat(int(we), int(wf))
    except ValueError:
        return None


class TestNewFamilyEndToEnd:
    """Registering a family plugs it into every layer — no dispatch edits."""

    @pytest.fixture()
    def brain(self):
        formats.register_family(
            formats.FormatFamily(
                name="brain",
                fmt_type=_BrainFormat,
                backend_cls=_BrainBackend,
                parse=_parse_brain,
                sweep_candidates=lambda n: [_BrainFormat(5, n - 6)] if n >= 7 else [],
            )
        )
        try:
            yield formats.get("brain5_2")
        finally:
            formats.unregister_family("brain")

    def test_name_resolution(self, brain):
        assert brain.family == "brain"
        assert brain.fmt == _BrainFormat(5, 2)

    def test_engine_and_emac_dispatch(self, brain, rng):
        engine = engine_for(brain.fmt)
        emac = scalar_emac_for(brain.fmt)
        hi = 1 << brain.width
        from repro.floatp import tables_for

        reserved = tables_for(brain.fmt).is_reserved
        W = rng.integers(0, hi, size=(3, 9), dtype=np.uint32)
        X = rng.integers(0, hi, size=(4, 9), dtype=np.uint32)
        W[reserved[W]] = 0
        X[reserved[X]] = 0
        out = engine.dot(W, X)
        for i in range(4):
            for o in range(3):
                assert int(out[i, o]) == emac.dot(
                    [int(w) for w in W[o]], [int(x) for x in X[i]]
                )

    def test_quantize_dispatch(self, brain, rng):
        values = rng.normal(size=10)
        patterns = quantize_nearest(brain.fmt, values)
        assert patterns.dtype == np.uint32

    def test_sweep_candidates(self, brain):
        families = {c.family for c in candidate_configs(8)}
        assert "brain" in families
        assert not any(c.family == "brain" for c in candidate_configs(5))

    def test_network_end_to_end(self, brain, rng):
        weights = [rng.normal(size=(4, 3)), rng.normal(size=(2, 4))]
        biases = [rng.normal(size=4), rng.normal(size=2)]
        net = PositronNetwork.from_float_params(brain.fmt, weights, biases)
        inputs = rng.normal(size=(5, 3))
        values = net.forward_values(inputs)
        assert values.shape == (5, 2)
        # Vector engine agrees with the scalar reference path.
        patterns = net.engine.quantize(inputs)
        scalar = net.forward_scalar([int(p) for p in patterns[0]])
        assert [int(v) for v in net.forward_patterns(patterns[0])[0]] == scalar


class TestInvalidParameters:
    def test_parsed_but_invalid_name_raises_keyerror(self):
        # Name matches a family's syntax but the descriptor rejects the args;
        # callers (e.g. the CLI) rely on a single KeyError contract.
        with pytest.raises(KeyError):
            formats.get("posit8_9")  # es > 8 unsupported
        with pytest.raises(KeyError):
            formats.get("fixed8_9")  # q > n-1
