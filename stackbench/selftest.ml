(* Fast self-checks of the benchmark, run by `dune runtest`:

     selftest.exe BENCHMARK.json MAIN_EXE

   - the percentile helper refuses a percentile with fewer than ten
     samples beyond it;
   - the seeded Zipf stream is a function of its seed;
   - `MAIN_EXE --list` prints exactly the workloads and metrics that
     BENCHMARK.json declares. *)

module J = Json_read

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" what
  end

let percentiles () =
  let samples n = List.init n float_of_int in
  check "p90 of 100 has 10 beyond" (Stats.percentile (samples 100) 0.9 <> None);
  check "p95 of 100 is refused" (Stats.percentile (samples 100) 0.95 = None);
  check "p99 of 1000 has 10 beyond" (Stats.percentile (samples 1000) 0.99 <> None);
  check "p99 of 999 is refused" (Stats.percentile (samples 999) 0.99 = None);
  check "median of 1..5" (Stats.median [ 5.; 1.; 3.; 2.; 4. ] = 3.);
  check "median interpolates" (Stats.median [ 1.; 2. ] = 1.5)

let zipf () =
  let s seed = Zipf.stream ~seed ~keys:100 ~s:1.0 ~length:3000 in
  check "same seed, same stream" (s 7 = s 7);
  check "other seed, other stream" (s 7 <> s 8);
  check "keys in range" (Array.for_all (fun k -> k >= 0 && k < 100) (s 7));
  (* The hottest key carries about 1/H(100) = 19% of the queries. *)
  let counts = Array.make 100 0 in
  Array.iter (fun k -> counts.(k) <- counts.(k) + 1) (s 7);
  let top = Array.fold_left max 0 counts in
  check "hottest key near 19%" (top > 450 && top < 700)

let list_matches ~benchmark ~main =
  let j = J.parse (In_channel.with_open_bin benchmark In_channel.input_all) in
  let items k = J.to_list (J.member k j) in
  let str k o = J.to_string (J.member k o) in
  let declared =
    List.map (fun w -> Printf.sprintf "workload %s: %s" (str "name" w) (str "why" w)) (items "workloads")
    @ List.map
        (fun m ->
          Printf.sprintf "end_to_end %s %s %s %g" (str "name" m) (str "unit" m) (str "better" m)
            (J.to_float (J.member "bound" m)))
        (items "end_to_end")
    @ List.map
        (fun m -> Printf.sprintf "per_layer %s %s %s" (str "name" m) (str "unit" m) (str "better" m))
        (items "per_layer")
  in
  let ic = Unix.open_process_args_in main [| main; "--list" |] in
  let listed = String.split_on_char '\n' (String.trim (In_channel.input_all ic)) in
  check "--list exits 0" (Unix.close_process_in ic = Unix.WEXITED 0);
  List.iter (fun l -> if not (List.mem l listed) then Printf.printf "  only in BENCHMARK.json: %s\n" l) declared;
  List.iter (fun l -> if not (List.mem l declared) then Printf.printf "  only in --list: %s\n" l) listed;
  check "--list matches BENCHMARK.json" (declared = listed)

let () =
  match Sys.argv with
  | [| _; benchmark; main |] ->
      percentiles ();
      zipf ();
      list_matches ~benchmark ~main;
      if !failures > 0 then exit 1
  | _ ->
      prerr_endline "usage: selftest.exe BENCHMARK.json MAIN_EXE";
      exit 2
