"""Generic closed-loop client driver.

A client owns one application connection and issues requests back to
back (optionally with think time) until a stop time, recording each
request's latency.  Solution policies (cgroup / PARTIES / Retro / DARC)
hook the request boundaries through the optional ``policy`` object:

- ``policy.before_request(ctx, request)``: a *generator* driven before
  each request (Retro throttles here; DARC tags the thread here);
- ``policy.after_request(ctx, request, latency_us)``: plain call after
  completion (PARTIES and Retro read latencies here).

Request tracing: every request draws a monotonically increasing id from
``kernel.next_request_id()`` and fires the canonical ``req.begin`` /
``req.end`` tracepoints at the ``Now()`` boundaries the latency
recorder samples -- so any timeline a subscriber reconstructs between
the two events telescopes bit-exactly to the traced latency
(``req.end`` minus ``req.begin`` time, including admission-control
stalls and deferred overhead charges paid at the first syscall inside
the window).  The tracepoints fire at the post-resume kernel clock:
when a penalty or an injected fault defers the resume that carries a
boundary ``Now()`` value, the send value is stale, and firing it would
make the bus non-monotonic.  The recorder deliberately keeps the
syscall-boundary samples so measured latencies stay bit-identical to
the pre-tracing build; the traced window then exceeds the recorded one
by exactly the boundary stall, which the decomposition attributes to
its cause (usually ``penalty``).  While a request is in flight
the client also publishes ``kernel.active_requests[tid] = rid`` so
downstream layers (the event-driven pools) can tag work they perform on
the client's behalf.
"""

from repro.sim.syscalls import Now, Sleep


def closed_loop_client(kernel, connection, request_factory, recorder,
                       start_us=0, stop_us=None, think_us=0, rng=None,
                       policy=None, policy_ctx=None, tenant=None):
    """Build a thread body driving ``connection`` in a closed loop.

    Parameters
    ----------
    connection:
        Object with generator methods ``open()``, ``execute(request)``
        and ``close()`` (see :class:`repro.apps.base.Connection`).
    request_factory:
        Zero-argument callable producing the next request.
    recorder:
        :class:`~repro.workloads.stats.LatencyRecorder` for latencies.
    start_us / stop_us:
        The client sleeps until ``start_us`` (late joiners, e.g. the
        fifth client of case c3) and stops issuing at ``stop_us``.
    think_us:
        Mean think time between requests; jittered when ``rng`` given.
    tenant:
        Label carried by ``req.begin`` so per-request traces group by
        tenant without name parsing (defaults to the thread name).
    """
    if stop_us is None:
        raise ValueError("stop_us is required")

    tp_begin = kernel.trace.point("req.begin")
    tp_end = kernel.trace.point("req.end")
    active_requests = kernel.active_requests
    # Syscall objects are never mutated, so one Now() serves every read.
    now_call = Now()

    def body():
        if start_us:
            yield Sleep(us=start_us)
        yield from connection.open()
        tid = kernel.current_thread.tid
        who = tenant if tenant is not None else kernel.current_thread.name
        while True:
            now = yield now_call
            if now >= stop_us:
                break
            request = request_factory()
            began = yield now_call
            # A penalty- or fault-deferred resume delivers a stale send
            # value: the clock may have advanced before this generator
            # actually regained control.  The recorder keeps the
            # syscall-boundary sample (`began`/`finished`) so measured
            # latencies are unchanged from the pre-tracing build; the
            # tracepoints fire at the post-resume clock so the bus
            # stays time-monotonic and the traced window telescopes
            # exactly (boundary stalls land in the penalty segment).
            begin_fired = kernel.now_us
            # Ids are drawn and the in-flight map maintained whether or
            # not anyone subscribes, so request numbering (and the pool
            # tags derived from it) is observation-independent.
            rid = kernel.next_request_id()
            active_requests[tid] = rid
            if tp_begin.active:
                tp_begin.fire(begin_fired, rid=rid, tid=tid, tenant=who)
            # Admission control (e.g. Retro's token bucket) is part of
            # the end-to-end latency the client observes.
            if policy is not None:
                yield from policy.before_request(policy_ctx, request)
            yield from connection.execute(request)
            finished = yield now_call
            end_fired = kernel.now_us
            active_requests.pop(tid, None)
            if tp_end.active:
                tp_end.fire(end_fired, rid=rid, tid=tid,
                            latency_us=end_fired - begin_fired)
            recorder.record(finished - began, finished)
            if policy is not None:
                policy.after_request(policy_ctx, request, finished - began)
            if think_us:
                pause = think_us
                if rng is not None:
                    pause = max(0, int(rng.uniform(0.5 * think_us, 1.5 * think_us)))
                if pause:
                    yield Sleep(us=pause)
        yield from connection.close()

    return body
