(** Protocol and deployment configuration for a simulated network.

    Defaults approximate the paper's SSFNet setup: 30-second MRAI on
    announcements with per-session jitter, small link delays, and — when a
    damping preset is supplied — damping deployed at every router. *)

type damping_mode =
  | Plain  (** RFC 2439 damping: every update increments the penalty. *)
  | Rcn  (** RCN-enhanced: penalty only for unseen root causes (Section 6). *)
  | Selective
      (** Mao et al. baseline: skip the penalty for announcements the sender
          marked as monotonically worse (path exploration). *)

type reuse_mode =
  | Exact
      (** one simulator timer per suppressed entry, armed at the analytic
          reuse instant — the reference behaviour, bit-identical to all
          historical results *)
  | Tick of float
      (** RFC 2439 §4.8.6 reuse lists: suppressed entries are bucketed onto
          a shared per-router tick wheel with this tick period (seconds).
          Reuse fires at the first tick boundary at or after the analytic
          reuse instant — within one tick of [Exact] — and a whole bucket
          costs one simulator event, as deployed routers behave. *)

type deployment =
  | Everywhere
  | Nowhere
  | Fraction of float  (** each router damps with this probability *)
  | Only of int list  (** damping only at the listed routers *)

type t = {
  mrai : float;  (** seconds; [0.] disables the MRAI entirely *)
  mrai_jitter : float * float;
      (** multiplicative jitter range applied once per (router, peer)
          session, as deployed routers do *)
  mrai_per_peer : bool;
      (** rate-limit announcements per peer (one shared deadline for every
          prefix, how most implementations behave) instead of per
          (peer, prefix) (RFC 4271's conceptual model; the default). When
          a session's deadline passes, every update parked behind it is
          sent at that instant, and the next interval starts; a prefix is
          still never announced twice on a session within an interval *)
  withdrawal_rate_limiting : bool;
      (** subject withdrawals to the MRAI too (off by default, as in most
          implementations) *)
  link_delay : float;  (** base one-way propagation + processing delay *)
  link_jitter : float;  (** extra uniform random delay per message *)
  damping : Rfd_damping.Params.t option;  (** [None] = no damping anywhere *)
  damping_overrides : (int * Rfd_damping.Params.t) list;
      (** per-router parameter overrides (router id, params) — the paper's
          Section 6 "diverse damping parameter settings"; only meaningful
          where damping is deployed *)
  damping_mode : damping_mode;
  reuse_mode : reuse_mode;
      (** how reuse timers are scheduled where damping is deployed;
          [Exact] by default *)
  deployment : deployment;
  rcn_history : int;  (** per-peer root-cause history capacity *)
  prefix_table_hint : int;
      (** initial slot capacity of every per-session column (RIB-In,
          RIB-Out, MRAI deadlines and queue, damping penalties) and of the
          router's Loc-RIB columns; columns double past it as higher
          prefix ids arrive. Set it to the expected prefix count per
          session — e.g. 1–2 for Internet-scale single-origin runs, so
          tens of thousands of low-degree routers don't pay for unused
          slots; the default is 8 *)
  seed : int;  (** master RNG seed for jitter and deployment sampling *)
}

val default : t
(** No damping, MRAI 30 s with jitter factor in [0.75, 1.0], link delay
    0.05 s with 0.05 s jitter, seed 42. *)

val with_damping :
  ?mode:damping_mode ->
  ?reuse:reuse_mode ->
  ?deployment:deployment ->
  Rfd_damping.Params.t ->
  t ->
  t
(** Convenience: enable damping on top of an existing configuration. *)

val validate : t -> (unit, string) result
