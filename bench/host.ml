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

(* Words a run allocated on the minor heap and promoted out of it, read
   with [Gc.quick_stat] around the run. Unlike wall time they repeat for a
   given build, to within tens of words in millions. *)
type alloc = { minor_words : int; promoted_words : int }

let measure_alloc f =
  let g0 = Gc.quick_stat () in
  let x = f () in
  let g1 = Gc.quick_stat () in
  ( x,
    {
      minor_words = int_of_float (g1.Gc.minor_words -. g0.Gc.minor_words);
      promoted_words = int_of_float (g1.Gc.promoted_words -. g0.Gc.promoted_words);
    } )
