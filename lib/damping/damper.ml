type event = Withdrawal | Reannouncement | Attribute_change

(* One-slot memo for decay factors. Within a simulation step many entries
   settle over the same [dt] (a session flap withdraws a whole table at one
   instant; a flap train touches entries in lockstep), so the owner shares
   one cache across its dampers and each repeated [dt] costs a float
   compare instead of an [exp]. The factor is the bit-identical result of
   the same [exp] call, so cached and uncached runs are indistinguishable. *)
type cache = {
  mutable c_lambda : float;
  mutable c_dt : float;
  mutable c_factor : float;
}

let cache () = { c_lambda = Float.nan; c_dt = Float.nan; c_factor = 1. }

(* What every slot of one owner shares: the parameters and the constants
   derived from them, computed once instead of per entry. *)
type setting = {
  params : Params.t;
  lambda : float; (* decay rate *)
  ceiling : float; (* Params.max_penalty *)
  cache : cache option;
}

let validated who params =
  match Params.validate params with
  | Ok () -> params
  | Error msg -> invalid_arg (who ^ ": " ^ msg)

let make_setting ?cache params =
  { params; lambda = Params.lambda params; ceiling = Params.max_penalty params; cache }

let setting ?cache params = make_setting ?cache (validated "Damper.setting" params)

(* Penalty columns: slot [i]'s penalty is [value.(i)] as of time [at.(i)].
   A fresh slot holds zero as of time zero, exactly the state a new
   per-entry damper started from. *)
type slots = {
  setting : setting;
  mutable value : Float.Array.t;
  mutable at : Float.Array.t;
}

let slots setting ~capacity =
  { setting; value = Float.Array.make capacity 0.; at = Float.Array.make capacity 0. }

let widen column capacity =
  let fresh = Float.Array.make capacity 0. in
  Float.Array.blit column 0 fresh 0 (Float.Array.length column);
  fresh

let grow s capacity =
  if capacity > Float.Array.length s.value then begin
    s.value <- widen s.value capacity;
    s.at <- widen s.at capacity
  end

let decay_factor st ~dt =
  match st.cache with
  | Some c when c.c_lambda = st.lambda && c.c_dt = dt -> c.c_factor
  | Some c ->
      let f = exp (-.st.lambda *. dt) in
      c.c_lambda <- st.lambda;
      c.c_dt <- dt;
      c.c_factor <- f;
      f
  | None -> exp (-.st.lambda *. dt)

let settle s i ~now =
  (* Fold the decay since the last touch into the slot's value. *)
  let at = Float.Array.get s.at i in
  if now < at -. 1e-9 then invalid_arg "Damper: clock moved backwards";
  let dt = Float.max 0. (now -. at) in
  if dt > 0. then begin
    Float.Array.set s.value i (Float.Array.get s.value i *. decay_factor s.setting ~dt);
    Float.Array.set s.at i now
  end

let slot_penalty s i ~now =
  settle s i ~now;
  Float.Array.get s.value i

let increment params = function
  | Withdrawal -> params.Params.withdrawal_penalty
  | Reannouncement -> params.Params.reannouncement_penalty
  | Attribute_change -> params.Params.attribute_change_penalty

let slot_record s i ~now ~suppressed event =
  settle s i ~now;
  let st = s.setting in
  let value = Float.min (Float.Array.get s.value i +. increment st.params event) st.ceiling in
  Float.Array.set s.value i value;
  if (not suppressed) && value > st.params.Params.cutoff then `Suppressed else `Ok

let slot_reuse_time s i ~now =
  settle s i ~now;
  now +. Params.reuse_delay s.setting.params ~penalty:(Float.Array.get s.value i)

let slot_try_reuse s i ~now =
  settle s i ~now;
  let value = Float.Array.get s.value i in
  let params = s.setting.params in
  if value <= params.Params.reuse then `Reused
  else
    (* [settle] already ran, so the delay reads the value directly instead
       of going through [slot_reuse_time]'s redundant second settle. *)
    `Not_yet (now +. Params.reuse_delay params ~penalty:value)

(* ------------------------------------------------------------------ *)
(* One-slot view                                                       *)

type t = { slot : slots; mutable suppressed : bool; mutable recorded : int }

let create ?cache params =
  let setting = make_setting ?cache (validated "Damper.create" params) in
  { slot = slots setting ~capacity:1; suppressed = false; recorded = 0 }

let params t = t.slot.setting.params
let penalty t ~now = slot_penalty t.slot 0 ~now
let suppressed t = t.suppressed

let record t ~now event =
  let transition = slot_record t.slot 0 ~now ~suppressed:t.suppressed event in
  t.recorded <- t.recorded + 1;
  (match transition with `Suppressed -> t.suppressed <- true | `Ok -> ());
  transition

let reuse_time t ~now =
  if not t.suppressed then invalid_arg "Damper.reuse_time: entry is not suppressed";
  slot_reuse_time t.slot 0 ~now

let try_reuse t ~now =
  if not t.suppressed then invalid_arg "Damper.try_reuse: entry is not suppressed";
  match slot_try_reuse t.slot 0 ~now with
  | `Reused ->
      t.suppressed <- false;
      `Reused
  | `Not_yet _ as later -> later

let events_recorded t = t.recorded

let pp ppf t =
  Format.fprintf ppf "penalty=%.1f@%.1f%s (%d events)"
    (Float.Array.get t.slot.value 0)
    (Float.Array.get t.slot.at 0)
    (if t.suppressed then " SUPPRESSED" else "")
    t.recorded
