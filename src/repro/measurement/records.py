"""Observation log model.

A campaign produces one :class:`RoundRecord` per ping round: every
client's per-type sample (multiplier, EWT, which cars it saw) plus a
merged map of every distinct car sighted that round.  The merge mirrors
how the paper aggregates its 43 response streams before analysis — supply
is "the total number of unique cars observed across all measurement
points" (§3.3) — while per-client multiplier streams stay separate
because jitter strikes per client (§5.2).

Logs serialize to JSON-lines so campaigns can be generated once (they are
expensive) and re-analysed many times, like the paper's 996 GB archive.
A ``.gz`` suffix gzips them at :data:`GZIP_LEVEL`: a 24-h UberX log of
42 Manhattan clients shrinks 11.6x (234 MB to 20.2 MB), a 60-round log
of every car type at 20x fleet density 3.6x.  :meth:`CampaignLog.write`
takes the rounds as they are measured, so a campaign of any length
holds one round at a time.
"""

from __future__ import annotations

import gzip
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, TextIO, Tuple, Union

from repro.geo.latlon import LatLon
from repro.marketplace.types import CarType

#: zlib level of ``.gz`` logs, zlib's own default.  Against level 9, the
#: ``gzip.open`` default, it takes 48 % and 67 % of the CPU for 0.8 %
#: and 4.6 % more bytes on a 60-round all-types log and a 6-h UberX log;
#: level 5 is cheaper still, but its UberX log is 30 % bigger than level
#: 6's (CHANGES.md has the sweep).
GZIP_LEVEL = 6

#: Suffix of the sibling a log is written to before it replaces its
#: path; compression follows the name without it.
PARTIAL_SUFFIX = ".part"


@dataclass(frozen=True)
class ClientSample:
    """What one client recorded for one car type in one round."""

    multiplier: float
    ewt_minutes: Optional[float]
    car_ids: Tuple[str, ...]


@dataclass
class RoundRecord:
    """All observations from one ping round (one timestamp)."""

    t: float
    #: (client_id, car_type) -> sample
    samples: Dict[Tuple[str, CarType], ClientSample]
    #: car_id -> last-known position this round (merged across clients)
    cars: Dict[str, Tuple[float, float]]

    def multiplier(self, client_id: str, car_type: CarType) -> Optional[float]:
        sample = self.samples.get((client_id, car_type))
        return None if sample is None else sample.multiplier


@dataclass
class CampaignLog:
    """A full measurement campaign: rounds plus fleet metadata."""

    city: str
    client_positions: Dict[str, LatLon]
    ping_interval_s: float
    rounds: List[RoundRecord] = field(default_factory=list)

    @property
    def client_ids(self) -> List[str]:
        return sorted(self.client_positions)

    @property
    def duration_s(self) -> float:
        if len(self.rounds) < 2:
            return 0.0
        return self.rounds[-1].t - self.rounds[0].t

    def car_types(self) -> List[CarType]:
        types = set()
        for record in self.rounds:
            for (_, car_type) in record.samples:
                types.add(car_type)
        return sorted(types, key=lambda t: t.value)

    def multiplier_series(
        self, client_id: str, car_type: CarType
    ) -> List[Tuple[float, float]]:
        """(t, multiplier) stream for one client, skipping missing rounds."""
        series = []
        for record in self.rounds:
            sample = record.samples.get((client_id, car_type))
            if sample is not None:
                series.append((record.t, sample.multiplier))
        return series

    def ewt_series(
        self, client_id: str, car_type: CarType
    ) -> List[Tuple[float, Optional[float]]]:
        series = []
        for record in self.rounds:
            sample = record.samples.get((client_id, car_type))
            if sample is not None:
                series.append((record.t, sample.ewt_minutes))
        return series

    # ------------------------------------------------------------------
    # Persistence (JSON lines: one header line, then one line per round)
    # ------------------------------------------------------------------
    @staticmethod
    def _open(path: Union[str, Path], mode: str) -> TextIO:
        if str(path).removesuffix(PARTIAL_SUFFIX).endswith(".gz"):
            return gzip.open(path, mode + "t", compresslevel=GZIP_LEVEL)
        return open(path, mode)

    def save(self, path: Union[str, Path]) -> None:
        """Write this log, every round it holds, to *path* (see
        :meth:`write`)."""
        self.write(path, self.rounds)

    def write(
        self, path: Union[str, Path], rounds: Iterable[RoundRecord]
    ) -> int:
        """Write this log's header, then one line per round of
        *rounds*, to *path*; return the number of rounds written.

        The rounds are written as *rounds* yields them and none is
        kept, so a campaign can hand its rounds over as it measures
        them (``self.rounds`` is not read or changed).  The lines go to
        the sibling ``<path>.part``, which replaces *path* once *rounds*
        is exhausted: a file at *path* is always a whole log.  If
        *rounds* raises, or the process dies, the sibling stays, and
        :meth:`load` with ``strict=False`` reads it up to its last
        whole round.  A ``.gz`` suffix on *path* gzips at
        :data:`GZIP_LEVEL`.
        """
        partial = f"{path}{PARTIAL_SUFFIX}"
        count = 0
        with self._open(partial, "w") as f:
            header = {
                "city": self.city,
                "ping_interval_s": self.ping_interval_s,
                "clients": {
                    cid: [p.lat, p.lon]
                    for cid, p in self.client_positions.items()
                },
            }
            f.write(json.dumps(header) + "\n")
            for count, record in enumerate(rounds, start=1):
                f.write(_round_line(record))
        os.replace(partial, path)
        return count

    @classmethod
    def load(
        cls, path: Union[str, Path], strict: bool = True
    ) -> "CampaignLog":
        """Load a campaign log written by :meth:`save`.

        With ``strict`` (default), any malformed line raises
        :class:`ValueError` naming the offending line — silent data loss
        would corrupt every downstream figure.  With ``strict=False``,
        damaged *round* lines are skipped (a truncated final line is the
        common artefact of an interrupted campaign, and a ``.gz`` log
        cut short ends at its last whole round) and the log loads with
        whatever rounds survive; a damaged header is always fatal.
        """
        with cls._open(path, "r") as f:
            try:
                header = json.loads(f.readline())
                log = cls(
                    city=header["city"],
                    client_positions={
                        cid: LatLon(lat, lon)
                        for cid, (lat, lon) in header["clients"].items()
                    },
                    ping_interval_s=header["ping_interval_s"],
                )
            except (EOFError, json.JSONDecodeError, KeyError,
                    TypeError) as exc:
                raise ValueError(
                    f"{path}: not a campaign log (bad header): {exc}"
                ) from exc
            line_no = 1
            try:
                for line_no, line in enumerate(f, start=2):
                    try:
                        log.rounds.append(_round_from_line(line))
                    except (json.JSONDecodeError, KeyError, TypeError,
                            ValueError) as exc:
                        if strict:
                            raise ValueError(
                                f"{path}: corrupt round at line "
                                f"{line_no}: {exc}"
                            ) from exc
            except EOFError as exc:
                # A gzip stream cut short raises here, once every line
                # it could decompress before the cut has been read.
                if strict:
                    raise ValueError(
                        f"{path}: log ends mid-stream after line "
                        f"{line_no}: {exc}"
                    ) from exc
        return log


def _round_line(record: RoundRecord) -> str:
    """One round as its line of a saved log (tuples encode as JSON
    arrays, so the car ids and positions go in as they are)."""
    return json.dumps({
        "t": record.t,
        "samples": [
            [cid, ct.value, s.multiplier, s.ewt_minutes, s.car_ids]
            for (cid, ct), s in record.samples.items()
        ],
        "cars": record.cars,
    }) + "\n"


def _round_from_line(line: str) -> RoundRecord:
    """One round line of a saved log, as :func:`_round_line` writes
    it."""
    row = json.loads(line)
    samples = {
        (cid, CarType(ct)): ClientSample(
            multiplier=mult,
            ewt_minutes=ewt,
            car_ids=tuple(ids),
        )
        for cid, ct, mult, ewt, ids in row["samples"]
    }
    cars = {
        car_id: (lat, lon)
        for car_id, (lat, lon) in row["cars"].items()
    }
    return RoundRecord(t=row["t"], samples=samples, cars=cars)
