(* Tests for gnuplot emission. *)

module Plot = Rfd_experiment.Plot

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec loop i = i + n <= h && (String.sub haystack i n = needle || loop (i + 1)) in
  n = 0 || loop 0

let sample_plot () =
  Plot.make ~name:"figX" ~title:"A title" ~x_label:"pulses" ~y_label:"seconds"
    [ ("a", [ (1., 10.); (2., 20.) ]); ("b", [ (2., 5.) ]) ]

let test_data_file () =
  let data = Plot.data_file (sample_plot ()) in
  let lines = String.split_on_char '\n' data |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check bool) "missing point marked" true (contains ~needle:"?" data);
  Alcotest.(check bool) "x column" true (contains ~needle:"1 10 ?" data);
  Alcotest.(check bool) "shared x row" true (contains ~needle:"2 20 5" data)

let test_script () =
  let s =
    Plot.script (sample_plot ()) ~data_filename:"figX.dat" ~output_filename:"figX.png"
  in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains ~needle s))
    [
      "set terminal pngcairo";
      "set output \"figX.png\"";
      "set title \"A title\"";
      "set datafile missing '?'";
      "using 1:2 with linespoints title \"a\"";
      "using 1:3 with linespoints title \"b\"";
    ];
  Alcotest.(check bool) "no logscale by default" false (contains ~needle:"logscale" s);
  let log_plot =
    Plot.make ~logscale_y:true ~style:`Steps ~name:"l" ~title:"t" ~x_label:"x" ~y_label:"y"
      [ ("s", [ (1., 1.) ]) ]
  in
  let s2 = Plot.script log_plot ~data_filename:"l.dat" ~output_filename:"l.png" in
  Alcotest.(check bool) "logscale" true (contains ~needle:"set logscale y" s2);
  Alcotest.(check bool) "steps style" true (contains ~needle:"with steps" s2)

let test_write () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "rfd_plot_test" in
  Plot.write (sample_plot ()) ~dir;
  Alcotest.(check bool) "dat exists" true (Sys.file_exists (Filename.concat dir "figX.dat"));
  Alcotest.(check bool) "gp exists" true (Sys.file_exists (Filename.concat dir "figX.gp"));
  Sys.remove (Filename.concat dir "figX.dat");
  Sys.remove (Filename.concat dir "figX.gp")

let suite =
  [
    Alcotest.test_case "plot data file" `Quick test_data_file;
    Alcotest.test_case "plot script" `Quick test_script;
    Alcotest.test_case "plot write" `Quick test_write;
  ]
