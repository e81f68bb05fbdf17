(* What the rfd-bench/1 files record beside their numbers: the host (core
   count, OCaml version and the checked-out commit), so numbers committed
   from different machines or revisions are never compared blind, and each
   run's executed events by kind. *)

module Json = Rfd.Json

let first_line path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      In_channel.input_line ic |> Option.map String.trim

(* The commit in [.git] of the working directory, read from the files
   directly: HEAD, then its loose ref, then packed-refs. "unknown" outside
   a git checkout. *)
let git_rev () =
  let packed ref_ =
    match open_in ".git/packed-refs" with
    | exception Sys_error _ -> None
    | ic ->
        Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
        In_channel.input_all ic |> String.split_on_char '\n'
        |> List.find_map (fun line ->
               match String.split_on_char ' ' line with
               | [ rev; r ] when r = ref_ -> Some rev
               | _ -> None)
  in
  let rev =
    match first_line ".git/HEAD" with
    | Some head when String.starts_with ~prefix:"ref: " head -> (
        let ref_ = String.sub head 5 (String.length head - 5) in
        match first_line (Filename.concat ".git" ref_) with
        | Some rev -> Some rev
        | None -> packed ref_)
    | detached -> detached
  in
  Option.value rev ~default:"unknown"

let to_json () =
  Json.Obj
    [
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("git_rev", Json.String (git_rev ()));
    ]

(* Executed simulator events by kind, the run's per-layer event split. *)
let layers_to_json (k : Rfd.Network.event_counts) =
  Json.Obj
    [
      ("delivery", Json.Int k.Rfd.Network.deliveries);
      ("flush", Json.Int k.Rfd.Network.flushes);
      ("reuse", Json.Int k.Rfd.Network.reuses);
      ("wheel", Json.Int k.Rfd.Network.wheels);
      ("op", Json.Int k.Rfd.Network.ops);
    ]

(* Words a run allocated on the minor heap and promoted out of it. Minor
   words come from [Gc.minor_words], which counts every allocation up to
   the call; [Gc.quick_stat]'s count stops at the domain's last minor
   collection, so it moves when allocation moves in time. Promotion
   happens only at a minor collection, so [Gc.quick_stat] counts it
   exactly. Unlike wall time both repeat for a given build, to within
   tens of words in millions. *)
type alloc = { minor_words : int; promoted_words : int }

let measure_alloc f =
  (* The minor count brackets the run alone, not [quick_stat]'s record. *)
  let p0 = (Gc.quick_stat ()).Gc.promoted_words in
  let m0 = Gc.minor_words () in
  let x = f () in
  let m1 = Gc.minor_words () in
  let p1 = (Gc.quick_stat ()).Gc.promoted_words in
  (x, { minor_words = int_of_float (m1 -. m0); promoted_words = int_of_float (p1 -. p0) })
