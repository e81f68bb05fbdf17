(** Apply a {!Rfd_faults.Fault_plan} to a live network.

    Installation is two things: configure per-directed-link transport
    degradation (loss/duplication probabilities, effective immediately, in
    every partition), and schedule every expanded fault event — scheduled
    and seeded-random link fail/recover, router crash/restart — at
    [start +. event.at], broadcast to every partition like any other
    administrative operation of {!Par_net}.

    Everything is range-checked against the concrete topology before any
    state is touched, so a bad plan fails loudly at install time with an
    actionable message instead of mid-run. *)

val install : ?start:float -> Rfd_faults.Fault_plan.t -> Par_net.t -> unit
(** [install ~start plan par]. [start] defaults to [0.] (event times in the
    plan are relative to it). Random flap cycles with an empty candidate
    list draw from every link of [par]'s topology. Raises
    [Invalid_argument] when the plan fails {!Rfd_faults.Fault_plan.validate},
    when a link/node is outside the topology, or when [start] is negative.
    Expansion is deterministic and events are scheduled in timeline order,
    so every partition count sees them in the same order. *)
