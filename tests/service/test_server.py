"""End-to-end daemon tests: real sockets, real workers, byte parity.

Each fixture (``unix_daemon`` lives in ``conftest.py``) starts a
:class:`ServiceServer` on a thread inside the test process — the same
listener/dispatcher the ``repro serve`` subprocess runs — and talks to it
through :class:`ServiceClient` over the actual transport.
"""

import json
import socket
import threading

import pytest

from repro.core.equivalence import check_language_equivalence
from repro.protocols import tiny
from repro.service.client import ServiceClient, ServiceError, parse_server_address
from repro.service.core import ServiceConfig
from repro.service.server import ServerStartupError, ServiceServer


#: Option values the service must answer with a typed ``bad_request``.
MALFORMED_OPTIONS = (
    {"use_leaps": "false"},
    {"oracle_packets": -3},
    {"oracle_packets": "abc"},
)


def _assert_malformed_options_rejected(address):
    with ServiceClient(address) as client:
        for options in MALFORMED_OPTIONS:
            with pytest.raises(ServiceError) as err:
                client.check(
                    tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse",
                    options=options,
                )
            assert (err.value.code, err.value.status) == ("bad_request", 400)
        assert client.ping()["protocol"] == "2"  # the daemon is still up


@pytest.fixture
def http_daemon(tmp_path):
    server = ServiceServer(config=ServiceConfig(workers=1), http_port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.address, server
    server.request_shutdown(drain=True)
    assert server.finished.wait(timeout=30)


class TestAddressParsing:
    def test_unix_forms(self):
        assert parse_server_address("/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_server_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")

    def test_http_forms(self):
        assert parse_server_address("http://127.0.0.1:80/") == \
            ("http", "http://127.0.0.1:80")

    def test_invalid_addresses(self):
        with pytest.raises(ValueError):
            parse_server_address("  ")
        with pytest.raises(ValueError):
            parse_server_address("unix:")


class TestUnixTransport:
    def test_ping(self, unix_daemon):
        socket_path, _ = unix_daemon
        with ServiceClient(socket_path) as client:
            ping = client.ping()
            assert ping["protocol"] == "2"
            assert not ping["draining"]

    def test_check_round_trip_is_byte_identical(self, unix_daemon):
        socket_path, _ = unix_daemon
        left, right = tiny.incremental_bits(), tiny.big_bits()
        local = check_language_equivalence(left, "Start", right, "Parse")
        with ServiceClient(socket_path) as client:
            cold = client.check(left, "Start", right, "Parse")
            warm = client.check(left, "Start", right, "Parse")
        assert cold.source == "solve" and warm.source == "store"
        assert str(cold) == str(local)
        assert str(warm) == str(local)

    def test_refutation_round_trip_is_byte_identical(self, unix_daemon):
        socket_path, _ = unix_daemon
        left, right = tiny.incremental_bits(), tiny.big_bits_wrong_length()
        local = check_language_equivalence(left, "Start", right, "Parse")
        with ServiceClient(socket_path) as client:
            remote = client.check(left, "Start", right, "Parse")
        assert remote.refuted
        assert str(remote) == str(local)
        assert remote.counterexample is not None

    def test_unknown_endpoint_is_a_clean_error(self, unix_daemon):
        socket_path, _ = unix_daemon
        with ServiceClient(socket_path) as client:
            with pytest.raises(ServiceError) as err:
                client.request("frobnicate")
            assert err.value.code == "unknown_endpoint"
            assert err.value.status == 404

    def test_malformed_line_gets_an_error_envelope(self, unix_daemon):
        socket_path, _ = unix_daemon
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        conn.connect(socket_path)
        try:
            conn.sendall(b"this is not json\n")
            with conn.makefile("rb") as reader:
                response = json.loads(reader.readline().decode())
        finally:
            conn.close()
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"

    def test_pipelined_requests_share_a_connection(self, unix_daemon):
        socket_path, _ = unix_daemon
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        conn.connect(socket_path)
        try:
            conn.sendall(
                b'{"id": 1, "endpoint": "ping", "params": {}}\n'
                b'{"id": 2, "endpoint": "stats", "params": {}}\n'
            )
            with conn.makefile("rb") as reader:
                first = json.loads(reader.readline().decode())
                second = json.loads(reader.readline().decode())
        finally:
            conn.close()
        assert first["id"] == 1 and first["ok"]
        assert second["id"] == 2 and second["ok"]
        assert "queue" in second["result"]

    def test_malformed_options_are_bad_requests(self, unix_daemon):
        socket_path, _ = unix_daemon
        _assert_malformed_options_rejected(socket_path)

    def test_socket_is_owner_only(self, unix_daemon):
        import os
        import stat

        socket_path, _ = unix_daemon
        mode = stat.S_IMODE(os.stat(socket_path).st_mode)
        assert mode == 0o600

    def test_drain_then_new_work_is_rejected_with_503(self, unix_daemon):
        socket_path, _ = unix_daemon
        with ServiceClient(socket_path) as client:
            answer = client.drain()
            assert answer["draining"] is True
            with pytest.raises(ServiceError) as err:
                client.check(
                    tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse"
                )
            assert err.value.code == "draining"
            assert err.value.status == 503


class TestHttpTransport:
    def test_ping_and_check(self, http_daemon):
        address, _ = http_daemon
        with ServiceClient(address) as client:
            assert client.ping()["protocol"] == "2"
            outcome = client.check(
                tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse"
            )
            assert outcome.proved

    def test_malformed_options_are_bad_requests(self, http_daemon):
        address, _ = http_daemon
        _assert_malformed_options_rejected(address)

    def test_error_maps_to_http_status(self, http_daemon):
        address, _ = http_daemon
        with ServiceClient(address) as client:
            with pytest.raises(ServiceError) as err:
                client.request("frobnicate")
            assert err.value.status == 404


class TestLifecycle:
    def test_shutdown_acknowledges_then_stops(self, tmp_path):
        import os

        socket_path = str(tmp_path / "daemon.sock")
        stats_json = str(tmp_path / "stats.json")
        server = ServiceServer(
            config=ServiceConfig(workers=1),
            socket_path=socket_path,
            stats_json=stats_json,
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        with ServiceClient(socket_path) as client:
            client.ping()
            answer = client.shutdown()
            assert answer["stopping"] is True
        assert server.finished.wait(timeout=30)
        assert not os.path.exists(socket_path)  # socket removed on exit
        with open(stats_json) as handle:
            snapshot = json.load(handle)
        assert snapshot["server"]["requests"] == {"ping": 1, "shutdown": 1}

    def test_stale_socket_is_replaced(self, tmp_path):
        socket_path = str(tmp_path / "stale.sock")
        dead = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        dead.bind(socket_path)
        dead.close()  # leaves the file behind with nobody listening
        server = ServiceServer(
            config=ServiceConfig(workers=1), socket_path=socket_path
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        with ServiceClient(socket_path) as client:
            assert client.ping()["protocol"] == "2"
        server.request_shutdown()
        assert server.finished.wait(timeout=30)

    def test_live_daemon_is_not_hijacked(self, unix_daemon):
        socket_path, _ = unix_daemon
        with pytest.raises(ServerStartupError) as err:
            ServiceServer(config=ServiceConfig(workers=1), socket_path=socket_path)
        assert "already listening" in str(err.value)

    def test_exactly_one_transport_required(self, tmp_path):
        with pytest.raises(ServerStartupError):
            ServiceServer(config=ServiceConfig(workers=1))
        with pytest.raises(ServerStartupError):
            ServiceServer(
                config=ServiceConfig(workers=1),
                socket_path=str(tmp_path / "s.sock"),
                http_port=0,
            )

    def test_unreachable_daemon_reports_clearly(self, tmp_path):
        with ServiceClient(str(tmp_path / "absent.sock")) as client:
            with pytest.raises(ServiceError) as err:
                client.ping()
            assert err.value.code == "unreachable"
            assert "serve" in str(err.value)


class TestCliThinClient:
    def test_scenarios_run_output_matches_local(self, unix_daemon, capsys):
        from repro.cli import main

        socket_path, _ = unix_daemon
        assert main(["scenarios", "run", "mini_synthetic"]) == 0
        local_output = capsys.readouterr().out
        code = main(["scenarios", "run", "mini_synthetic", "--server", socket_path])
        remote_output = capsys.readouterr().out
        assert code == 0
        assert remote_output == local_output

    def test_server_env_variable_is_honoured(self, unix_daemon, capsys,
                                             monkeypatch):
        from repro.cli import main

        socket_path, server = unix_daemon
        monkeypatch.setenv("LEAPFROG_SERVER", socket_path)
        assert main(["scenarios", "run", "mini_synthetic_broken"]) == 0
        assert "REFUTED" in capsys.readouterr().out
        assert server.core.checks >= 1  # the daemon did the work

    def test_unreachable_server_is_a_clean_cli_error(self, tmp_path, capsys):
        from repro.cli import main
        from repro.p4a.pretty import pretty

        left = tmp_path / "left.p4a"
        right = tmp_path / "right.p4a"
        left.write_text(pretty(tiny.incremental_bits()))
        right.write_text(pretty(tiny.big_bits()))
        code = main([
            "check", str(left), str(right),
            "--left-start", "Start", "--right-start", "Parse",
            "--server", str(tmp_path / "absent.sock"),
        ])
        assert code == 2
        capsys.readouterr()  # swallow the error line printed to stderr
