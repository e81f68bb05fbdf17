(** Four-state classification of a damping episode (Figure 4 of the paper):
    charging → suppression → releasing → converged.

    Two views are offered. {!classify} yields the paper's *principal* spans:
    charging runs from the first flap to the last update that precedes the
    first reuse-timer firing, suppression is the quiet span up to that
    firing, releasing runs from the first reuse firing to the last update,
    and converged follows. {!classify_detailed} instead clusters update
    deliveries into busy periods separated by quiet gaps, exposing the
    secondary suppression periods that strong secondary charging creates
    (Figure 10(e)). *)

type kind = Charging | Suppression | Releasing | Converged

type span = { kind : kind; start_time : float; end_time : float }
(** [end_time = infinity] for the trailing converged span. *)

val classify :
  update_times:Rfd_engine.Column.Floats.t ->
  reuse_times:Rfd_engine.Column.Floats.t ->
  flap_start:float ->
  span list
(** Principal spans, read from the columns in place. Inputs must be sorted
    ascending. With no updates at all, a single converged span is
    returned; with no reuse events, the whole busy period is charging. *)

val classify_detailed :
  ?quiet_gap:float ->
  update_times:Rfd_engine.Column.Floats.t ->
  reuse_times:Rfd_engine.Column.Floats.t ->
  damped_at:(float -> int) ->
  flap_start:float ->
  unit ->
  span list
(** Cluster-based view: busy periods separated by gaps longer than
    [quiet_gap] (default 30 s). Busy periods before the first reuse firing
    are charging, later ones releasing; quiet gaps are suppression when
    [damped_at midpoint > 0], converged otherwise. *)

val pp_kind : Format.formatter -> kind -> unit
val pp_span : Format.formatter -> span -> unit

val total : kind -> span list -> float
(** Summed duration of all finite spans of a kind. *)

val find : kind -> span list -> span option
(** First span of the kind. *)
