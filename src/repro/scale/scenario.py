"""Multi-tenant scenario generator for the scalability sweep.

A *tenant* is one application instance (assigned round-robin from the
spec's family list -- MySQL, PostgreSQL, and Apache by default, plus
the event-driven cache tier (memcached, varnish) and the FaaS platform
when the extended mix is selected) plus its workers:

- two **connection clients** driving requests through the application's
  :class:`~repro.apps.base.Connection` -- the pBox-bound path that
  exercises the manager's HOLD/UNHOLD pipeline (two pBoxes per tenant,
  so pBox count scales with the tenant count);
- one **notifier** plus a pool of **event-loop workers** parked on the
  tenant's condition key: every broadcast wakes the whole pool at once
  and each woken worker burns a short compute slice -- the regime the
  batched futex wake, the idle-core bitmask dispatch, and the timer
  wheel exist for.

Everything is seeded through the kernel's named RNG registry, so a
scale run is as deterministic as any registry case.
"""

from repro.apps.apachesim import ApacheConfig, ApacheServer
from repro.apps.faassim import FaasConfig, FaasServer
from repro.apps.memcachedsim import MemcachedConfig, MemcachedServer
from repro.apps.mysqlsim import MySQLConfig, MySQLServer
from repro.apps.pgsim import PGConfig, PostgresServer
from repro.apps.varnishsim import VarnishConfig, VarnishServer
from repro.core import (
    OperationCosts,
    PBoxRuntime,
    PenaltyBudget,
    ShardedPBoxManager,
)
from repro.sim import Kernel
from repro.sim.syscalls import Compute, FutexWait, FutexWake, Now, Sleep
from repro.workloads import closed_loop_client
from repro.workloads.traces import sample_duration

#: Worker threads per tenant (one of which is the connection client).
WORKERS_PER_TENANT = 20

#: Shared penalty budget per scale run: at most this much outstanding
#: delay-penalty time across all tenant shards at once.  Sized at 24
#: cap-length penalties -- far above what the sweep ever reserves (the
#: per-point ``budget_denied`` column proves it never binds), so it
#: bounds pathological pile-ups without steering the measured runs.
PENALTY_BUDGET_US = 24 * 5_000_000

#: Approximate uncontended request latency per (app kind, role), used
#: as the slowdown denominator for SLO telemetry.  Derived from the
#: request factories below (service work plus fixed per-request model
#: overhead); the values only scale the slowdown axis -- they never
#: feed scheduling, so they cannot affect determinism.
NOMINAL_REQUEST_US = {
    ("mysql", "oltp"): 900,      # pk_insert: 2 ops x 400us work
    ("mysql", "batch"): 300,     # nopk_insert: 2 ops x 100us work
    ("pg", "oltp"): 400,         # other_table_query: 150us work
    ("pg", "batch"): 2_200,      # lock_table_scan: 2,000us scan
    ("apache", "oltp"): 300,     # static, 200us service
    ("apache", "batch"): 800,    # static, 700us service
    ("memcached", "oltp"): 80,   # get: 30us service + lock + dispatch
    ("memcached", "batch"): 150,  # set: 40us + probable eviction
    ("varnish", "oltp"): 600,    # small_object: 500us serve + sumstat
    ("varnish", "batch"): 4_700,  # big_object: 4ms backend + delivery
    ("faas", "oltp"): 600,       # 400us function, warm start + teardown
    ("faas", "batch"): 3_300,    # ~3ms function, warm start + teardown
}


class ScaleSpec:
    """Parameters of one scale point.

    ``threads`` is the total worker population; tenants are derived as
    ``threads // workers_per_tenant`` so the pBox count grows with the
    thread count: two connection pBoxes per tenant means 10 pBoxes at
    the bottom of the sweep (100 threads) and 1,000 at the top (10,000
    threads) -- past the 500 the paper's manager was sized for.
    ``cores`` defaults to an oversubscribed many-core host: enough
    cores that the scheduler, not an artificially tiny CPU, is what's
    being measured.
    """

    def __init__(self, threads, workers_per_tenant=WORKERS_PER_TENANT,
                 cores=None, duration_us=None, seed=1, manager_enabled=True,
                 event_budget=250_000, sched="cfs", families=None):
        if threads < workers_per_tenant:
            raise ValueError("need at least one tenant's worth of threads")
        self.threads = threads
        self.workers_per_tenant = workers_per_tenant
        self.tenants = threads // workers_per_tenant
        self.cores = cores if cores is not None else default_cores(threads)
        self.seed = seed
        self.manager_enabled = manager_enabled
        self.event_budget = event_budget
        # Scheduler policy and tenant family mix.  The defaults
        # reproduce the pre-extension sweep exactly (cfs + the three
        # dedicated-thread families), which the A/B throughput guard in
        # benchmarks/ depends on: its before/after kernels must run the
        # byte-identical scenario.
        self.sched = sched
        self.families = tuple(families) if families else APP_KINDS
        if duration_us is None:
            duration_us = duration_for_budget(self.cores, event_budget)
        self.duration_us = duration_us

    def describe(self):
        return ("%d threads / %d tenants / %d cores / %.0f ms virtual"
                " / sched=%s / %d families"
                % (self.threads, self.tenants, self.cores,
                   self.duration_us / 1_000, self.sched,
                   len(self.families)))


def default_cores(threads):
    """Core count for a plausible host running ``threads`` workers.

    8x oversubscription: server threads here are sleepy (event loops,
    think time), so 10,000 of them on a ~1,250-core consolidation host
    is the regime the paper's multi-tenant story targets.
    """
    return max(8, min(2048, threads // 8))


def duration_for_budget(cores, event_budget):
    """Virtual duration that yields roughly ``event_budget`` events.

    With the cores fully oversubscribed (the steady state of every
    scale point), event volume is core-bound: each core turns over a
    slice every few hundred microseconds and each slice costs a
    handful of kernel events (arm, fire, enqueue, dispatch).  The
    constant keeps every sweep point near the same measurement size
    regardless of thread count.
    """
    events_per_virtual_us = cores / 64.0
    duration_us = int(event_budget / events_per_virtual_us)
    return max(20_000, min(2_000_000, duration_us))


class RequestCounter:
    """Constant-memory recorder: request count and total latency only.

    At 500 tenants a sample list per connection is pointless weight;
    the sweep only needs aggregate throughput and mean latency.
    """

    def __init__(self, telemetry=None, tenant=None, nominal_us=None):
        self.count = 0
        self.total_us = 0
        # Optional telemetry mirror (TelemetryPipeline): request
        # latencies reach the pipeline off-bus, tagged by tenant.
        self.telemetry = telemetry
        self.tenant = tenant
        self.nominal_us = nominal_us

    def record(self, latency_us, _finished_us=None):
        self.count += 1
        self.total_us += latency_us
        if self.telemetry is not None:
            self.telemetry.record_request(
                self.tenant, latency_us, _finished_us or 0,
                nominal_us=self.nominal_us)

    @property
    def mean_us(self):
        return self.total_us / self.count if self.count else 0.0


class ScaleScenario:
    """Handles to a built (not yet run) scale scenario."""

    def __init__(self, spec, kernel, manager, runtime):
        self.spec = spec
        self.kernel = kernel
        self.manager = manager
        self.runtime = runtime
        self.servers = []
        self.request_counters = []
        # family -> [RequestCounter]: the sweep reports per-family
        # request totals so a mixed-family point shows each tenant
        # family actually ran (an all-zero family is a wiring bug).
        self.family_counters = {}
        self.telemetry = None

    def total_requests(self):
        return sum(counter.count for counter in self.request_counters)

    def requests_by_family(self):
        """Completed requests per tenant family (sorted keys)."""
        return {
            family: sum(counter.count for counter in counters)
            for family, counters in sorted(self.family_counters.items())
        }

    def run(self):
        """Run to the spec's horizon; returns the kernel for chaining."""
        self.kernel.run(until_us=self.spec.duration_us)
        if self.telemetry is not None:
            self.telemetry.finalize(self.kernel.now_us)
        return self.kernel


#: Worker-pool threads each event-driven family spawns per tenant;
#: they count against the tenant's ``workers_per_tenant`` budget (the
#: cv-waiter pool shrinks to compensate, keeping total thread count the
#: honest sweep axis).
POOL_WORKERS = {"memcached": 3, "varnish": 3, "faas": 3}


def _make_server(kind, kernel, runtime):
    if kind == "mysql":
        # Small buffer pool: tenant clients contend on their own pages
        # without turning every access into an IO stall.
        return MySQLServer(kernel, runtime,
                           MySQLConfig(buffer_pool_blocks=32))
    if kind == "pg":
        return PostgresServer(kernel, runtime, PGConfig())
    if kind == "memcached":
        return MemcachedServer(kernel, runtime,
                               MemcachedConfig(workers=POOL_WORKERS[kind]))
    if kind == "varnish":
        return VarnishServer(kernel, runtime,
                             VarnishConfig(workers=POOL_WORKERS[kind]))
    if kind == "faas":
        # Two tickets: the tenant's oltp/batch connections contend on
        # admission, mirroring the other families' serialization-point
        # collisions.
        return FaasServer(kernel, runtime,
                          FaasConfig(workers=POOL_WORKERS[kind], slots=2))
    # One worker: the tenant's two connections contend on the pool, so
    # the manager sees cross-pBox HOLD/defer traffic on the semaphore.
    return ApacheServer(kernel, runtime, ApacheConfig(max_workers=1))


def _request_factory(kind, tenant_index, rng, noisy=False):
    """Per-tenant request mix: short, *contended* application requests.

    Each tenant runs two connections against the same server instance;
    the request kinds are chosen so the pair collides on one of the
    app's serialization points (dict mutex / lock-manager partition /
    worker pool).  That keeps the manager's defer-and-blame pipeline --
    the part whose cost scales with pBox count -- continuously busy.
    """
    if kind == "mysql":
        if noisy:
            def make():
                return {"kind": "nopk_insert", "ops": 2, "work_us": 100}
        else:
            def make():
                return {"kind": "pk_insert", "ops": 2, "work_us": 400}
    elif kind == "pg":
        if noisy:
            def make():
                return {"kind": "lock_table_scan", "scan_us": 2_000}
        else:
            def make():
                return {"kind": "other_table_query", "work_us": 150}
    elif kind == "memcached":
        if noisy:
            # Sets evict with high probability, holding the cache lock
            # the victim's gets need.
            def make():
                return {"kind": "set", "type": "set"}
        else:
            def make():
                return {"kind": "get", "type": "get"}
    elif kind == "varnish":
        if noisy:
            # Big objects park a pool worker on a (shortened) backend
            # fetch, starving the small-object path of workers.
            def make():
                return {"kind": "big_object", "backend_us": 4_000,
                        "deliver_us": 500}
        else:
            def make():
                return {"kind": "small_object", "serve_us": 500}
    elif kind == "faas":
        if noisy:
            # Batch function durations follow the vendored trace
            # histogram (heavy-tailed), drawn from the tenant's own
            # seeded stream -- the same distribution the c18 trace
            # replayer samples.
            def make():
                return {"kind": "invoke",
                        "duration_us": sample_duration(rng)}
        else:
            def make():
                return {"kind": "invoke", "duration_us": 400}
    else:
        if noisy:
            def make():
                return {"kind": "static", "serve_us": 700}
        else:
            def make():
                return {"kind": "static", "serve_us": 200}
    return make


def _cv_waiter_body(wait, compute):
    """An event-loop worker parked on its tenant's condition key.

    Each broadcast wakes the whole pool at once -- the wake-all path
    that used to cost one full core scan *per waiter* and is now a
    single batched dispatch.  No timeout and no stop check: once the
    notifier stops broadcasting at the horizon the waiter simply stays
    blocked, exactly like a real event-loop thread with nothing to do
    (``run`` with a deadline leaves blocked threads parked).

    ``wait`` (the tenant's ``FutexWait``) and ``compute`` are yielded
    on every iteration.  The kernel never mutates a syscall object, so
    the whole pool shares them instead of allocating two per wake-up.
    The worker is the generator itself, not a closure that makes one:
    at 10k threads the per-waiter function and its cells cost ~2 MB.
    """
    while True:
        yield wait
        yield compute


def _cv_notifier_body(key, rng, stop_us, period_us=1_000):
    """The tenant's dispatcher: periodically broadcasts to its pool."""
    now_call = Now()
    broadcast = FutexWake(key, n=1_000_000)  # wake-all
    pause = Sleep(us=period_us)

    def body():
        yield Sleep(us=rng.randint(0, period_us))
        while True:
            now = yield now_call
            if now >= stop_us:
                break
            yield broadcast
            yield pause

    return body


#: The original (pre-extension) tenant families; the default for
#: ``ScaleSpec`` so existing consumers (the A/B throughput guard)
#: keep their byte-identical scenarios.
APP_KINDS = ("mysql", "pg", "apache")

#: The full family mix ``repro scale`` sweeps by default: the three
#: dedicated-thread servers plus the event-driven cache tier and the
#: sandbox-churning FaaS platform.
EXTENDED_APP_KINDS = ("mysql", "pg", "apache", "memcached", "varnish",
                      "faas")


def build_scale_scenario(spec, kernel_binder=None, telemetry=None):
    """Build the kernel, manager, tenants and workers for ``spec``.

    ``kernel_binder(kernel, manager)``, when given, runs before any
    thread is spawned -- the A/B throughput guard uses it to rebind the
    kernel's hot paths to their pre-PR implementations so both kernels
    execute the identical scenario.

    ``telemetry`` (a :class:`~repro.obs.telemetry.TelemetryPipeline`),
    when given, is attached to the kernel's bus (bound to the manager's
    dirty set) and every connection's request counter mirrors into it,
    tagged ``t<N>`` with the role's nominal latency as the slowdown
    denominator.
    """
    kernel = Kernel(cores=spec.cores, seed=spec.seed,
                    sched=getattr(spec, "sched", "cfs"))
    # Per-tenant shards behind one facade: every tenant's resource keys
    # are shard-local by construction (each tenant gets its own server
    # instance), so detection state stays tenant-sized while the psid
    # space and the penalty budget remain app-wide.
    manager = ShardedPBoxManager(
        kernel, enabled=spec.manager_enabled,
        penalty_budget=PenaltyBudget(cap_us=PENALTY_BUDGET_US))
    runtime = PBoxRuntime(manager, costs=OperationCosts(),
                          enabled=spec.manager_enabled)
    if kernel_binder is not None:
        kernel_binder(kernel, manager)
    if telemetry is not None:
        telemetry.attach(kernel.trace, manager=manager)
    scenario = ScaleScenario(spec, kernel, manager, runtime)
    scenario.telemetry = telemetry
    stop_us = spec.duration_us
    families = getattr(spec, "families", APP_KINDS)
    # Every cv waiter's slice of work, one object for all of them.
    cv_compute = Compute(us=150)
    for tenant in range(spec.tenants):
        kind = families[tenant % len(families)]
        server = _make_server(kind, kernel, runtime)
        scenario.servers.append(server)
        # Event-driven families run their requests on a worker pool;
        # spawn it before the clients so its threads exist when the
        # first request is submitted.
        pool_workers = POOL_WORKERS.get(kind, 0)
        if pool_workers:
            server.start()
        # Two connections per tenant -- a batch-style aggressor and a
        # short-request victim -- contending on the same app resource,
        # so every tenant contributes cross-pBox defer/blame traffic.
        family_counters = scenario.family_counters.setdefault(kind, [])
        for role, noisy in (("oltp", False), ("batch", True)):
            conn_rng = kernel.rng("scale.t%d.%s" % (tenant, role))
            counter = RequestCounter(
                telemetry=telemetry, tenant="t%d" % tenant,
                nominal_us=NOMINAL_REQUEST_US[(kind, role)])
            scenario.request_counters.append(counter)
            family_counters.append(counter)
            body = closed_loop_client(
                kernel,
                server.connect("t%d-%s" % (tenant, role)),
                _request_factory(kind, tenant, conn_rng, noisy=noisy),
                counter,
                start_us=conn_rng.randint(0, 2_000),
                stop_us=stop_us,
                think_us=200,
                rng=conn_rng,
                tenant="t%d" % tenant,
            )
            kernel.spawn(body, name="t%d-%s" % (tenant, role))
        # Remaining workers: one notifier broadcasting to the tenant's
        # pool of event-loop workers -- the thread-pool idiom every
        # server here uses (Apache workers, memcached event threads).
        # Families with an explicit worker pool spend part of the
        # tenant's thread budget there, so their cv pool is smaller.
        cv_key = "scale.t%d.cv" % tenant
        notifier_rng = kernel.rng("scale.t%d.notify" % tenant)
        kernel.spawn(_cv_notifier_body(cv_key, notifier_rng, stop_us),
                     name="t%d-notify" % tenant)
        cv_wait = FutexWait(cv_key)
        for worker in range(spec.workers_per_tenant - 3 - pool_workers):
            kernel.spawn(_cv_waiter_body(cv_wait, cv_compute),
                         name="t%d-cv%d" % (tenant, worker))
    return scenario
