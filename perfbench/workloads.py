"""The benchmark's three workloads, each a closed loop with one load thread.

* ``population`` — many clients join one after another over the in-process
  transport: each cold-syncs the Google lists (blacklist fraction 0.1,
  about 66k prefixes) and checks a short session of corpus URLs as page
  batches through ``check_urls``; one page of each session also links a
  blacklisted URL, which needs a full-hash exchange.  A round is one client
  joining; the fleet keeps the latest clients alive, so memory stops
  growing once it is full.
* ``navigate-http`` — two long-lived clients, each with one keep-alive
  connection to a ``ServiceThread`` co-hosted in this process (server
  response cache off), alternate one ``check_url`` per navigation.  Six in
  ten navigations go to blacklisted URLs that need a full-hash round
  trip.  Every few rounds of navigations, a poll round lists a small batch
  of new entries on the server and both clients poll ``update``, so each
  poll carries one chunk.
* ``ingest`` — a SQLite-backed server with no corpus.  Batches stream in
  through ``IngestionPipeline.step``, each listing new entries and removing
  as many of the oldest, so the list keeps its size; after each commit every
  client polls ``update`` and checks the batch's new URLs plus one URL it
  removed.

Every workload is driven only through the program's public functions, takes
its inputs from the seed, and checks every verdict against an oracle built
from the planted ground truth: a URL is malicious when one of its
decompositions is a blacklisted expression.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.clock import ManualClock
from repro.corpus.datasets import build_blacklist_snapshot, build_dataset_bundle
from repro.exceptions import ProtocolError
from repro.hashing.digests import url_prefix
from repro.safebrowsing.client import ClientConfig, SafeBrowsingClient
from repro.safebrowsing.httptransport import HttpTransport
from repro.safebrowsing.ingest import (IngestionPipeline, ListMutation,
                                      synthetic_additions)
from repro.safebrowsing.lists import GOOGLE_LISTS, ListProvider, lists_for_provider
from repro.safebrowsing.netservice import ServiceThread
from repro.safebrowsing.protocol import Verdict
from repro.safebrowsing.server import SafeBrowsingServer
from repro.urls.canonicalize import canonicalize
from repro.urls.decompose import decompositions

#: Clients only update when the workload says so.
CLIENT_CONFIG = ClientConfig(auto_update=False)


def is_malicious(url: str, blacklisted: set[str]) -> bool:
    """The oracle: does any decomposition of ``url`` sit on a list?"""
    return any(expression in blacklisted
               for expression in decompositions(canonicalize(url), canonical=True))


@dataclass
class Round:
    """One round's work and its latency samples (seconds)."""

    verdicts: int
    entries: int
    wall: float
    checks: list[float]
    syncs: list[float]
    publishes: list[float]


@dataclass
class Tally:
    """What one phase measured and verified."""

    #: Samples of the round in progress; :meth:`end_round` files them.
    checks: list[float] = field(default_factory=list)
    syncs: list[float] = field(default_factory=list)
    publishes: list[float] = field(default_factory=list)
    rounds: list[Round] = field(default_factory=list)
    verdicts: int = 0
    attempted: int = 0
    failed: int = 0
    roundtrips: int = 0

    def end_round(self, verdicts: int, entries: int, wall: float) -> None:
        """File the round's samples with its verdicts, live entries and wall."""
        self.rounds.append(Round(verdicts, entries, wall, self.checks,
                                 self.syncs, self.publishes))
        self.checks, self.syncs, self.publishes = [], [], []

    @property
    def wall(self) -> float:
        return sum(round_.wall for round_ in self.rounds)


@dataclass
class SetupTimes:
    """One set-up, split by step (seconds)."""

    corpus: float = 0.0
    provision: float = 0.0
    start: float = 0.0

    @property
    def total(self) -> float:
        return self.corpus + self.provision + self.start


def provision_google(seed: int, corpus_hosts: int, fraction: float,
                     **server_options):
    """The corpus, the planted Google lists and a server provisioned from them.

    Returns the Alexa-like corpus, the ground truth (list -> expressions),
    the server and the set-up times of the two steps.
    """
    start = perf_counter()
    bundle = build_dataset_bundle(corpus_hosts, seed=seed)
    snapshot = build_blacklist_snapshot(
        ListProvider.GOOGLE, scale=fraction, seed=seed,
        multi_prefix_sites=bundle.alexa, multi_prefix_site_count=15)
    built = perf_counter()
    server = SafeBrowsingServer(lists_for_provider(ListProvider.GOOGLE),
                                **server_options)
    for list_name, expressions in snapshot.ground_truth.items():
        if expressions:
            server.blacklist(list_name, expressions)
    provisioned = perf_counter()
    return (bundle.alexa, snapshot.ground_truth, server,
            SetupTimes(corpus=built - start, provision=provisioned - built))


class Workload:
    """Set-up, rounds and verification shared by the three workloads."""

    name = ""
    #: Rounds each of the untraced and traced phases of a traced run makes.
    trace_rounds = 30

    def __init__(self, seed: int, *, flip_first: bool = False) -> None:
        self.seed = seed
        #: Invert the oracle's verdict for the first URL the timed phase
        #: checks, to prove that a wrong verdict is counted as a failure.
        self.flip_first = flip_first
        self.expected: dict[str, bool] = {}

    # -- lifecycle, per workload ------------------------------------------------

    def build(self) -> SetupTimes:
        """Build everything the timed phase needs; time each step."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed set-up that follows the last build: the oracle."""

    def run_round(self, index: int, tally: Tally) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`build` opened."""

    def wire_bytes(self) -> int:
        """Bytes the clients have moved over a socket so far."""
        return 0

    def file_bytes_per_prefix(self, directory: Path) -> float:
        """Size of the server's storage file per stored prefix."""
        return 0.0

    # -- shared helpers ---------------------------------------------------------

    def expect(self, urls, blacklisted: set[str]) -> None:
        """Record the oracle's verdict for each URL not yet known."""
        for url in urls:
            if url not in self.expected:
                self.expected[url] = is_malicious(url, blacklisted)

    def flip(self, url: str) -> None:
        if self.flip_first:
            self.expected[url] = not self.expected[url]
            self.flip_first = False

    def verify(self, tally: Tally, urls, results) -> None:
        """Count each verdict that differs from the oracle as a failure."""
        expected = self.expected
        tally.verdicts += len(urls)
        tally.attempted += len(urls)
        for url, result in zip(urls, results):
            if (result.verdict is Verdict.MALICIOUS) != expected[url]:
                tally.failed += 1
            if result.sent_prefixes:
                tally.roundtrips += 1


class Population(Workload):
    """Many clients cold-sync, then check a short page-batch session."""

    name = "population"
    corpus_hosts = 100
    blacklist_fraction = 0.1
    #: Clients alive at once; a joining client replaces the oldest.
    fleet_size = 40
    pages_per_client = 3
    urls_per_page = 10

    def build(self) -> SetupTimes:
        corpus, self.ground_truth, self.server, times = provision_google(
            self.seed, self.corpus_hosts, self.blacklist_fraction,
            clock=ManualClock())
        self.sites = corpus.sites
        self.fleet = deque(maxlen=self.fleet_size)
        return times

    def prepare(self) -> None:
        subscribed = SafeBrowsingClient(self.server, name="oracle",
                                        config=CLIENT_CONFIG).subscribed_lists
        blacklisted = {expression for name in subscribed
                       for expression in self.ground_truth[name]}
        del self.ground_truth  # the verdicts are all the timed phase needs
        # Pages are drawn from the URLs whose decompositions hit no local
        # prefix, and one page per session links one blacklisted URL, so that
        # a third of the pages need a full-hash exchange on every seed: the
        # median page is then a local verdict and the 90th percentile an
        # exchange, neither on the edge between the two.
        prefixes = {url_prefix(expression) for expression in blacklisted}
        self.clean_sites = []
        for site in self.sites:
            clean = [url for url in site.urls if not any(
                url_prefix(expression) in prefixes for expression in
                decompositions(canonicalize(url), canonical=True))]
            if len(clean) >= self.urls_per_page:
                self.clean_sites.append(clean)
        self.blacklisted_urls = tuple(f"http://{expression}"
                                      for expression in sorted(blacklisted))
        self.expect((url for urls in self.clean_sites for url in urls),
                    blacklisted)
        self.expect(self.blacklisted_urls, blacklisted)
        self.flip(self.session(0)[0][0])

    def session(self, index: int) -> list[list[str]]:
        """The page batches of the client that joins in round ``index``."""
        rng = random.Random(self.seed * 1_000_003 + index)
        pages = [rng.sample(rng.choice(self.clean_sites), self.urls_per_page)
                 for _ in range(self.pages_per_client)]
        page = rng.choice(pages)
        page[rng.randrange(len(page))] = rng.choice(self.blacklisted_urls)
        return pages

    def run_round(self, index: int, tally: Tally) -> None:
        pages = self.session(index)
        verdicts = tally.verdicts
        round_start = perf_counter()
        client = SafeBrowsingClient(self.server, name=f"pop-{index}",
                                    config=CLIENT_CONFIG)
        self.fleet.append(client)
        tally.attempted += 1
        try:
            start = perf_counter()
            client.update()
            tally.syncs.append(perf_counter() - start)
            for page in pages:
                start = perf_counter()
                results = client.check_urls(page)
                tally.checks.append(perf_counter() - start)
                self.verify(tally, page, results)
        except ProtocolError:
            tally.failed += 1
        wall = perf_counter() - round_start
        tally.end_round(tally.verdicts - verdicts, 0, wall)


class NavigateHttp(Workload):
    """Two keep-alive HTTP clients alternate single-URL navigations."""

    name = "navigate-http"
    corpus_hosts = 100
    blacklist_fraction = 0.1
    trace_rounds = 100
    navigations_per_round = 50
    #: Share of each round's navigations that go to blacklisted URLs.  It is
    #: fixed per round, and high enough that the median check is a round
    #: trip rather than on the edge between local and remote verdicts.
    blacklisted_share = 0.6
    #: Every ``poll_every``-th round is a poll round.
    poll_every = 5
    #: Entries listed on the server before each poll round's polls.
    publish_size = 20

    def build(self) -> SetupTimes:
        self.clock = ManualClock()
        corpus, self.ground_truth, self.server, times = provision_google(
            self.seed, self.corpus_hosts, self.blacklist_fraction,
            clock=self.clock, response_cache_seconds=0)
        start = perf_counter()
        self.service = ServiceThread(self.server).start()
        self.clients = [
            SafeBrowsingClient(
                transport=HttpTransport(self.service.address,
                                        server=self.server),
                name=f"nav-{position}", config=CLIENT_CONFIG)
            for position in range(2)]
        for client in self.clients:
            client.update()
        times.start = perf_counter() - start
        self.corpus_urls = tuple(corpus.all_urls())
        return times

    def prepare(self) -> None:
        blacklisted = {expression
                       for name in self.clients[0].subscribed_lists
                       for expression in self.ground_truth[name]}
        self.blacklisted_urls = tuple(f"http://{expression}"
                                      for expression in sorted(blacklisted))
        self.expect(self.corpus_urls, blacklisted)
        self.expect(self.blacklisted_urls, blacklisted)
        del self.ground_truth
        self.published_list = self.clients[0].subscribed_lists[0]
        self.published = 0
        self.flip(self.navigations(0)[0])

    def navigations(self, index: int) -> list[str]:
        rng = random.Random(self.seed * 1_000_003 + index)
        blacklisted = round(self.navigations_per_round * self.blacklisted_share)
        urls = ([rng.choice(self.blacklisted_urls) for _ in range(blacklisted)]
                + [rng.choice(self.corpus_urls) for _ in
                   range(self.navigations_per_round - blacklisted)])
        rng.shuffle(urls)
        return urls

    def run_round(self, index: int, tally: Tally) -> None:
        if index % self.poll_every == self.poll_every - 1:
            self.publish_and_poll(tally)
            return
        urls = self.navigations(index)
        clients = self.clients
        verdicts = tally.verdicts
        round_start = perf_counter()
        for position, url in enumerate(urls):
            try:
                start = perf_counter()
                result = clients[position % 2].check_url(url)
                tally.checks.append(perf_counter() - start)
            except ProtocolError:
                tally.attempted += 1
                tally.failed += 1
                continue
            self.verify(tally, (url,), (result,))
        wall = perf_counter() - round_start
        tally.end_round(tally.verdicts - verdicts, 0, wall)
        # Expire every cached full hash, so each round needs the same share
        # of round trips however many rounds ran before it.
        self.clock.advance(CLIENT_CONFIG.full_hash_cache_seconds + 1.0)

    def publish_and_poll(self, tally: Tally) -> None:
        """A poll round: list a batch of new entries, let both clients fetch it.

        The entries are synthetic hosts that no navigation visits, so the
        verdicts the oracle computed in set-up stay right.
        """
        round_start = perf_counter()
        additions = synthetic_additions(self.published_list, self.publish_size,
                                        seed=self.seed, start=self.published)
        self.server.blacklist(self.published_list,
                              [mutation.expression for mutation in additions])
        self.published += self.publish_size
        for client in self.clients:
            tally.attempted += 1
            try:
                start = perf_counter()
                client.update()
                tally.syncs.append(perf_counter() - start)
            except ProtocolError:
                tally.failed += 1
        tally.end_round(0, 0, perf_counter() - round_start)
        self.check_convergence(tally)

    def check_convergence(self, tally: Tally) -> None:
        """Every client holds exactly the server's prefixes (untimed)."""
        server_prefixes = sum(self.server.database[name].prefix_count()
                              for name in self.clients[0].subscribed_lists)
        for client in self.clients:
            tally.attempted += 1
            if client.local_database_size() != server_prefixes:
                tally.failed += 1

    def wire_bytes(self) -> int:
        return sum(client.transport.stats.bytes_sent
                   + client.transport.stats.bytes_received
                   for client in self.clients)

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            for client in self.clients:
                client.transport.close()
            service.stop()
            self.service = None


class Ingest(Workload):
    """Batches stream into SQLite storage while clients poll and check.

    A round is one batch.  Each batch removes the oldest live entries as it
    adds new ones: a list that grew through the run would make every later
    poll dearer (the client store update is linear in its size), and how
    far it grew would depend on the host's speed.
    """

    name = "ingest"
    bootstrap_entries = 20_000
    bootstrap_batch = 1000
    #: Entries each batch adds, and removes.
    batch_size = 50
    client_count = 3

    def build(self) -> SetupTimes:
        start = perf_counter()
        self.list_name = GOOGLE_LISTS[0].name
        # An in-memory SQLite database: the full SQL commit path, with no
        # file and so no device flush in the measurement.
        self.server = SafeBrowsingServer(GOOGLE_LISTS[:1], clock=ManualClock(),
                                         storage="sqlite", storage_path=None)
        bootstrap = synthetic_additions(self.list_name, self.bootstrap_entries,
                                        seed=self.seed)
        loader = IngestionPipeline(self.server, batch_size=self.bootstrap_batch)
        loader.submit(bootstrap)
        loader.drain()
        provisioned = perf_counter()
        self.pipeline = IngestionPipeline(self.server,
                                          batch_size=2 * self.batch_size)
        self.clients = [SafeBrowsingClient(self.server, name=f"ingest-{position}",
                                           lists=[self.list_name],
                                           config=CLIENT_CONFIG)
                        for position in range(self.client_count)]
        for client in self.clients:
            client.update()
        started = perf_counter()
        self.blacklisted = {mutation.expression for mutation in bootstrap}
        self.last_committed = self.server.database.committed_version
        return SetupTimes(provision=provisioned - start,
                          start=started - provisioned)

    def batch(self, number: int) -> tuple[list, list, list[str]]:
        """Additions and removals of batch ``number``, and the URLs checked
        after it: the new entries and the first removed one."""
        additions = synthetic_additions(
            self.list_name, self.batch_size, seed=self.seed,
            start=self.bootstrap_entries + number * self.batch_size)
        removals = [
            ListMutation(list_name=self.list_name, action="remove-expression",
                         expression=mutation.expression)
            for mutation in synthetic_additions(
                self.list_name, self.batch_size, seed=self.seed,
                start=number * self.batch_size)]
        urls = [f"http://{mutation.expression}"
                for mutation in additions + removals[:1]]
        return additions, removals, urls

    def run_round(self, index: int, tally: Tally) -> None:
        additions, removals, urls = self.batch(index)
        self.blacklisted.difference_update(
            mutation.expression for mutation in removals)
        self.blacklisted.update(mutation.expression for mutation in additions)
        for url in urls:
            # A removed URL was malicious when an earlier batch checked it.
            self.expected[url] = is_malicious(url, self.blacklisted)
        self.flip(urls[0])
        self.pipeline.submit(removals + additions)
        verdicts = tally.verdicts
        start = perf_counter()
        published = self.publish(tally, urls)
        wall = perf_counter() - start
        if published:
            tally.publishes.append(wall)
        self.check_convergence(tally)
        tally.end_round(tally.verdicts - verdicts,
                        len(additions) if published else 0, wall)

    def publish(self, tally: Tally, urls: list[str]) -> bool:
        """Commit one batch and bring it to every client; True when all agree."""
        tally.attempted += 1
        progress = self.pipeline.step()
        published = (progress.committed_version == progress.version
                     and progress.committed_version >= self.last_committed)
        if not published:
            tally.failed += 1
        self.last_committed = progress.committed_version
        for client in self.clients:
            failed = tally.failed
            tally.attempted += 1
            try:
                start = perf_counter()
                client.update()
                tally.syncs.append(perf_counter() - start)
                start = perf_counter()
                results = client.check_urls(urls)
                tally.checks.append(perf_counter() - start)
            except ProtocolError:
                tally.failed += 1
                published = False
                continue
            self.verify(tally, urls, results)
            published = published and tally.failed == failed
        return published

    def check_convergence(self, tally: Tally) -> None:
        """Every client holds exactly the server's prefixes (untimed)."""
        server_prefixes = self.server.database[self.list_name].prefix_count()
        for client in self.clients:
            tally.attempted += 1
            if client.local_database_size() != server_prefixes:
                tally.failed += 1

    def file_bytes_per_prefix(self, directory: Path) -> float:
        """SQLite file size per stored prefix, from a backup of the database."""
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"ingest-{self.seed}.sqlite"
        try:
            self.server.database.storage.backup_to(path)
            size = path.stat().st_size
        finally:
            path.unlink(missing_ok=True)
        return size / self.server.database[self.list_name].prefix_count()

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.database.storage.close()
            self.server = None


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (Population, NavigateHttp, Ingest)
}
