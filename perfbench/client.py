"""Single-threaded HTTP load generator (asyncio, one process).

The service speaks HTTP/1.0 (``http.server``'s default), so every request
opens its own connection and reads the response to EOF.  At most
``max_conns`` requests are in flight at once.

* :func:`open_loop` sends on a fixed schedule (constant spacing) whatever
  the replies do; latency counts from the scheduled send time, so a stall
  also charges the requests queued behind it, and lateness records how far
  behind the schedule each send went out.
* :func:`closed_loop` keeps ``conns`` callers each sending its next
  request as soon as the previous reply arrives.
"""

from __future__ import annotations

import asyncio
import json

from dataclasses import dataclass


@dataclass
class Sample:
    """One request as sent and answered (bodies are parsed after the run)."""

    body: dict
    due: float
    sent: float
    done: float
    status: int
    raw: bytes

    @property
    def latency(self) -> float:
        return self.done - self.due

    def envelope(self) -> dict:
        return json.loads(self.raw)


async def request(host: str, port: int, method: str, path: str, body: bytes = b""):
    """One HTTP/1.0 exchange; returns ``(status, body bytes)``."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        head = (
            f"{method} {path} HTTP/1.0\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode()
        writer.write(head + body)
        data = await reader.read()
    finally:
        writer.close()
    status_line, _, rest = data.partition(b"\r\n")
    _, _, payload = rest.partition(b"\r\n\r\n")
    return int(status_line.split(b" ", 2)[1]), payload


class Client:
    def __init__(self, host: str, port: int, path: str):
        self.host, self.port, self.path = host, port, path

    async def _post(self, body: dict, due: float) -> Sample:
        loop = asyncio.get_running_loop()
        sent = loop.time()
        try:
            status, raw = await request(
                self.host, self.port, "POST", self.path, json.dumps(body).encode()
            )
        except OSError:
            status, raw = 0, b""
        return Sample(body, due, sent, loop.time(), status, raw)

    async def post(self, body: dict) -> Sample:
        return await self._post(body, asyncio.get_running_loop().time())

    async def get_json(self, path: str) -> dict:
        status, raw = await request(self.host, self.port, "GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(raw)

    async def open_loop(self, bodies, rate: float, max_conns: int):
        """Send ``bodies`` at ``rate`` per second; returns (samples, lateness)."""
        loop = asyncio.get_running_loop()
        slots = asyncio.Semaphore(max_conns)
        start = loop.time() + 0.01
        tasks, lateness = [], []

        async def one(body, due):
            try:
                return await self._post(body, due)
            finally:
                slots.release()

        for i, body in enumerate(bodies):
            due = start + i / rate
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            await slots.acquire()
            lateness.append(max(0.0, loop.time() - due))
            tasks.append(asyncio.ensure_future(one(body, due)))
        return list(await asyncio.gather(*tasks)), lateness

    async def closed_loop(self, next_body, seconds: float, conns: int):
        """``conns`` callers for ``seconds``; returns (samples, elapsed)."""
        loop = asyncio.get_running_loop()
        start = loop.time()
        end = start + seconds
        samples: list[Sample] = []

        async def caller():
            while loop.time() < end:
                samples.append(await self.post(next_body()))

        await asyncio.gather(*(caller() for _ in range(conns)))
        return samples, loop.time() - start
