"""The EngineConfig API: validation, coercion, and outside-input checks.

One frozen dataclass with one field, ``backend``, selects the
evaluation mode everywhere (replay(), Execution, Engine, Session, CLI,
service protocol): the compiled fast path or the reference oracle.
These tests pin its contract — a validated enum, every accepted input
shape, and that each outside input (the service protocol's ``engine``
option, the CLI's ``--engine`` flag) rejects removed or malformed modes
at admission with a typed error rather than a worker crash.
"""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.datalog import BACKENDS, EngineConfig
from repro.service.protocol import ProtocolError, parse_request


class TestValidation:
    def test_default_is_compiled(self):
        config = EngineConfig()
        assert config.backend == "compiled"

    def test_exactly_two_backends(self):
        assert BACKENDS == ("compiled", "reference")
        assert [f.name for f in dataclasses.fields(EngineConfig)] == [
            "backend"
        ]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown engine backend"):
            EngineConfig(backend="vectorized")

    def test_removed_indexed_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown engine backend"):
            EngineConfig(backend="indexed")

    def test_provenance_field_is_gone(self):
        with pytest.raises(TypeError):
            EngineConfig(provenance="lazy")

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            EngineConfig().backend = "reference"


class TestCoerce:
    def test_none_is_the_default(self):
        assert EngineConfig.coerce(None) == EngineConfig()

    def test_instance_passes_through(self):
        config = EngineConfig(backend="reference")
        assert EngineConfig.coerce(config) is config

    @pytest.mark.parametrize("name", BACKENDS)
    def test_backend_name_selects_that_backend(self, name):
        assert EngineConfig.coerce(name) == EngineConfig(backend=name)

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError, match="unknown engine backend"):
            EngineConfig.coerce("hash-join")

    def test_unsupported_shape_rejected(self):
        with pytest.raises(ValueError, match="cannot interpret"):
            EngineConfig.coerce(42)

    def test_mapping_rejected(self):
        with pytest.raises(ValueError, match="cannot interpret"):
            EngineConfig.coerce({"backend": "compiled"})


class TestProtocolOption:
    def _request(self, engine):
        return json.dumps(
            {
                "id": "req-1",
                "kind": "diagnose",
                "scenario": "SDN1",
                "options": {"engine": engine},
            }
        )

    def test_valid_engine_block_is_normalized(self):
        request = parse_request(self._request("reference"))
        assert request.options["engine"] == "reference"

    def test_unknown_backend_is_a_typed_protocol_error(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(self._request("warp-drive"))
        assert "unknown engine backend" in str(excinfo.value)

    def test_removed_indexed_backend_is_a_typed_protocol_error(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(self._request("indexed"))
        assert "unknown engine backend" in str(excinfo.value)

    def test_object_form_is_a_typed_protocol_error(self):
        with pytest.raises(ProtocolError, match="backend name string"):
            parse_request(
                self._request({"backend": "compiled", "provenance": "lazy"})
            )

    def test_non_string_non_mapping_is_a_typed_protocol_error(self):
        with pytest.raises(ProtocolError, match="backend name string"):
            parse_request(self._request(17))


class TestCommandLine:
    @pytest.mark.parametrize(
        "argv",
        [
            ["diagnose", "SDN1", "--engine", "indexed"],
            ["diagnose", "SDN1", "--provenance", "lazy"],
            ["stanford", "--engine", "indexed"],
            ["stanford", "--provenance", "eager"],
            ["serve", "--engine", "indexed"],
        ],
    )
    def test_removed_modes_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "indexed" in err or "--provenance" in err

    def test_reference_engine_accepted(self, capsys):
        assert main(["diagnose", "SDN1", "--engine", "reference"]) == 0
        assert "root-cause" in capsys.readouterr().out
