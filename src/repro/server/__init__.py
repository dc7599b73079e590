"""Concurrent serving front end: reads on the caller's thread under the
one admission bound, over pooled snapshot sessions and the observability
hub."""

from repro.server.server import Server, ServerError, ServerStats

__all__ = ["Server", "ServerError", "ServerStats"]
