"""Pass fixture: deadline-expiry timer callbacks stay O(1) bookkeeping
and wake a real process that does the blocking cancellation."""


def on_deadline(st, rec):
    st.actions.append(("due", rec))
    st.wake.fire()


def install(sim, st, rec, delay):
    sim.call_after(250e-6, on_deadline, st, rec)
    rec.timer = sim.call_after(delay, on_deadline, st, rec)
    rec.timer = sim.call_after(delay, lambda: st.wake.fire())
