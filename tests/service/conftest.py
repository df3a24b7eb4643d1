"""Shared fixture for the service tests: started daemons with teardown."""

from __future__ import annotations

import threading

import pytest

from repro.service import ProbeService, make_server


@pytest.fixture
def service_factory(tmp_path):
    """Build started services (+ optional HTTP shell); tears them down."""
    running = []

    def factory(subdir="data", http=False, start=True, **options):
        service = ProbeService(tmp_path / subdir, **options)
        if start:
            service.start()
        server = None
        if http:
            server = make_server(service)
            threading.Thread(
                target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
            ).start()
        running.append((service, server))
        if http:
            host, port = server.server_address[:2]
            return service, f"http://{host}:{port}"
        return service

    yield factory
    for service, server in running:
        service.begin_drain()
        if server is not None:
            server.shutdown()
            server.server_close()
        service.drain()
