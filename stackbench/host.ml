(* Host provenance printed with every result, so numbers taken on
   different machines or commits are never compared blind. *)

let read_line path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      In_channel.input_line ic |> Option.map String.trim

(* The commit checked out in [.git] of the working directory, read from
   the files directly (loose ref, then packed-refs); "unknown" outside a
   git checkout. *)
let git_rev () =
  match read_line ".git/HEAD" with
  | None -> "unknown"
  | Some head when not (String.starts_with ~prefix:"ref: " head) -> head
  | Some head -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      match read_line (Filename.concat ".git" ref_) with
      | Some rev -> rev
      | None -> (
          match open_in ".git/packed-refs" with
          | exception Sys_error _ -> "unknown"
          | ic ->
              Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
              In_channel.input_all ic |> String.split_on_char '\n'
              |> List.find_map (fun line ->
                     match String.split_on_char ' ' line with
                     | [ rev; r ] when r = ref_ -> Some rev
                     | _ -> None)
              |> Option.value ~default:"unknown"))

let describe ~seed ~seconds ~min_reps =
  Printf.sprintf "nproc=%d ocaml=%s rev=%s seed=%d seconds=%g min_reps=%d"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (git_rev ()) seed seconds min_reps
