module Col = Rfd_engine.Column.Floats

type kind = Charging | Suppression | Releasing | Converged

type span = { kind : kind; start_time : float; end_time : float }

let check_sorted name times =
  let previous = ref neg_infinity in
  Col.iter
    (fun time ->
      if time < !previous then invalid_arg (Printf.sprintf "Phases: %s not sorted" name);
      previous := time)
    times

let classify ~update_times ~reuse_times ~flap_start =
  check_sorted "update_times" update_times;
  check_sorted "reuse_times" reuse_times;
  let updates = Col.length update_times in
  if updates = 0 then
    [ { kind = Converged; start_time = flap_start; end_time = infinity } ]
  else begin
    let last_update = Col.get update_times (updates - 1) in
    let first_reuse =
      if Col.length reuse_times = 0 then None else Some (Col.get reuse_times 0)
    in
    match first_reuse with
    | None ->
        [
          { kind = Charging; start_time = flap_start; end_time = last_update };
          { kind = Converged; start_time = last_update; end_time = infinity };
        ]
    | Some reuse ->
        (* Last update strictly before the first reuse firing ends charging. *)
        let charging_end =
          let rec scan best i =
            if i >= updates then best
            else
              let time = Col.get update_times i in
              if time >= reuse then best else scan time (i + 1)
          in
          scan flap_start 0
        in
        let spans = ref [] in
        let push kind start_time end_time =
          if end_time > start_time then spans := { kind; start_time; end_time } :: !spans
        in
        push Charging flap_start charging_end;
        push Suppression charging_end reuse;
        push Releasing reuse (Float.max reuse last_update);
        push Converged (Float.max reuse last_update) infinity;
        List.rev !spans
  end

(* Group sorted times into (first, last) clusters separated by > gap. *)
let clusters times ~gap =
  let acc = ref [] in
  let current = ref None in
  Col.iter
    (fun time ->
      match !current with
      | None -> current := Some (time, time)
      | Some (first, last) ->
          if time -. last <= gap then current := Some (first, time)
          else begin
            acc := (first, last) :: !acc;
            current := Some (time, time)
          end)
    times;
  (match !current with Some c -> acc := c :: !acc | None -> ());
  List.rev !acc

let classify_detailed ?(quiet_gap = 30.) ~update_times ~reuse_times ~damped_at ~flap_start () =
  if quiet_gap <= 0. then invalid_arg "Phases.classify_detailed: quiet_gap must be positive";
  check_sorted "update_times" update_times;
  check_sorted "reuse_times" reuse_times;
  if Col.length update_times = 0 then
    [ { kind = Converged; start_time = flap_start; end_time = infinity } ]
  else begin
    let first_reuse = if Col.length reuse_times = 0 then infinity else Col.get reuse_times 0 in
    let busy = clusters update_times ~gap:quiet_gap in
    let spans = ref [] in
    let push kind start_time end_time =
      if end_time > start_time then spans := { kind; start_time; end_time } :: !spans
    in
    let cursor = ref flap_start in
    List.iter
      (fun (first, last) ->
        if first > !cursor then begin
          let midpoint = (!cursor +. first) /. 2. in
          let kind = if damped_at midpoint > 0 then Suppression else Converged in
          push kind !cursor first
        end;
        let kind = if first < first_reuse then Charging else Releasing in
        (* single-update clusters still count as (zero-width) busy spans *)
        spans := { kind; start_time = first; end_time = last } :: !spans;
        cursor := Float.max !cursor last)
      busy;
    push Converged !cursor infinity;
    List.rev !spans
  end

let pp_kind ppf = function
  | Charging -> Format.pp_print_string ppf "charging"
  | Suppression -> Format.pp_print_string ppf "suppression"
  | Releasing -> Format.pp_print_string ppf "releasing"
  | Converged -> Format.pp_print_string ppf "converged"

let pp_span ppf s =
  Format.fprintf ppf "%a [%.0f, %s]" pp_kind s.kind s.start_time
    (if s.end_time = infinity then "inf" else Printf.sprintf "%.0f" s.end_time)

let total kind spans =
  List.fold_left
    (fun acc s ->
      if s.kind = kind && s.end_time < infinity then acc +. (s.end_time -. s.start_time)
      else acc)
    0. spans

let find kind spans = List.find_opt (fun s -> s.kind = kind) spans
