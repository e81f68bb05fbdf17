(** Flap-pattern generation for the origin AS.

    The paper's evaluation uses a fixed-interval pulse train; its companion
    technical report varies the pattern. This module generates event
    schedules for several instability models, all ending with an
    announcement (so the destination is ultimately reachable, as in the
    paper's methodology). *)

type event = { at : float; kind : [ `Withdraw | `Announce ] }
(** Relative to the flap start; strictly increasing times. *)

type pattern =
  | Periodic of { pulses : int; interval : float }
      (** the paper's train: W at 0, A at [interval], W at [2*interval], … *)
  | Poisson of { pulses : int; mean_interval : float; seed : int }
      (** exponentially distributed gaps between consecutive events *)
  | Bursty of { bursts : int; pulses_per_burst : int; gap : float; burst_interval : float }
      (** bursts of rapid pulses separated by long quiet gaps *)
  | Custom of event list

val events : pattern -> event list
(** Expand a pattern. Raises [Invalid_argument] on non-positive (or
    non-finite) counts or intervals, or on a [Custom] list that is empty,
    not strictly increasing, or not alternating (a well-formed schedule
    alternates W, A, W, A, …, starting with a withdrawal and ending with an
    announcement). Use [Periodic {pulses = 0; _}] for the empty schedule —
    an empty [Custom] list is rejected because it would silently report a
    [final_announcement] of [0.]. Generated patterns (Poisson in
    particular) are guaranteed strictly increasing even under degenerate
    zero/denormal gap draws. *)

val final_announcement : pattern -> float
(** Time of the last event (0. for an empty pattern). *)

val to_intended_events : pattern -> Intended.event list
(** Convert for {!Intended.penalty_trace} (withdrawals/announcements map
    directly). *)

val pp : Format.formatter -> pattern -> unit
