"""Live-daemon fixtures shared by the service tests.

A daemon is a :class:`ServiceServer` listening on a real unix socket, served
from a thread inside the test process — the same listener, dispatcher and
worker pool the ``repro serve`` subprocess runs.
"""

import threading

import pytest

from repro.service.core import ServiceConfig
from repro.service.server import ServiceServer


@pytest.fixture
def start_daemon():
    """``start(socket_path, config)`` serves a daemon until the test ends.

    Every daemon still running at teardown is shut down, draining first; a
    test may stop one earlier to restart on the same socket and store.
    """
    servers = []

    def start(socket_path, config):
        server = ServiceServer(config=config, socket_path=socket_path)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.request_shutdown(drain=True)
        assert server.finished.wait(timeout=30)


@pytest.fixture
def unix_daemon(tmp_path, start_daemon):
    """``(socket_path, server)`` of a one-worker daemon with a verdict store."""
    socket_path = str(tmp_path / "daemon.sock")
    config = ServiceConfig(workers=1, store_dir=str(tmp_path / "store"))
    return socket_path, start_daemon(socket_path, config)
