type event = Withdrawal | Reannouncement | Attribute_change

(* What every slot under one parameter set shares, whichever owner holds
   it: the parameters and the constants derived from them, computed once
   instead of per entry. Immutable, so owners can share one value. *)
type setting = {
  params : Params.t;
  lambda : float; (* decay rate *)
  ceiling : float; (* Params.max_penalty *)
}

let setting params =
  (match Params.validate params with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Damper.setting: " ^ msg));
  { params; lambda = Params.lambda params; ceiling = Params.max_penalty params }

let params st = st.params
let lambda st = st.lambda

(* Penalty columns: slot [i]'s penalty is [value.(i)] as of time [at.(i)].
   A fresh slot holds zero as of time zero. The columns know no setting:
   slots under different settings share them, and each call names the
   slot's. *)
type slots = { mutable value : Float.Array.t; mutable at : Float.Array.t }

let slots ~capacity = { value = Float.Array.make capacity 0.; at = Float.Array.make capacity 0. }

let widen column capacity =
  let fresh = Float.Array.make capacity 0. in
  Float.Array.blit column 0 fresh 0 (Float.Array.length column);
  fresh

let grow s capacity =
  if capacity > Float.Array.length s.value then begin
    s.value <- widen s.value capacity;
    s.at <- widen s.at capacity
  end

(* Inlined, as [settle] is, so the float stays unboxed in this module's
   callers. *)
let[@inline] slot_penalty st s i ~now =
  let at = Float.Array.get s.at i in
  if now < at -. 1e-9 then invalid_arg "Damper: clock moved backwards";
  let value = Float.Array.get s.value i in
  if now > at then value *. exp (-.st.lambda *. (now -. at)) else value

(* Fold the decay since the last touch into the slot's value, and return
   it. A later decay then starts from this value, so every engine call
   that settles is part of the run's arithmetic. *)
let[@inline] settle st s i ~now =
  let value = slot_penalty st s i ~now in
  if now > Float.Array.get s.at i then begin
    Float.Array.set s.value i value;
    Float.Array.set s.at i now
  end;
  value

let increment params = function
  | Withdrawal -> params.Params.withdrawal_penalty
  | Reannouncement -> params.Params.reannouncement_penalty
  | Attribute_change -> params.Params.attribute_change_penalty

let slot_record st s i ~now ~suppressed event =
  let value = Float.min (settle st s i ~now +. increment st.params event) st.ceiling in
  Float.Array.set s.value i value;
  if (not suppressed) && value > st.params.Params.cutoff then `Suppressed else `Ok

let slot_reuse_time st s i ~now =
  now +. Params.reuse_delay st.params ~penalty:(settle st s i ~now)

let slot_try_reuse st s i ~now =
  let value = settle st s i ~now in
  let params = st.params in
  if value <= params.Params.reuse then `Reused
  else `Not_yet (now +. Params.reuse_delay params ~penalty:value)
