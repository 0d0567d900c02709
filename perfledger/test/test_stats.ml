(* The ledger's statistics: the tail-percentile rule and self time. *)

open Stats

let floats n = List.init n (fun i -> float_of_int (i + 1))

let tail_of n =
  match tail (floats n) with
  | Some t -> (t.t_pct, t.t_value, t.t_beyond)
  | None -> Alcotest.failf "no tail for %d samples" n

let tail_rule () =
  let check n pct value beyond =
    let p, v, b = tail_of n in
    Alcotest.(check (float 1e-9)) (Printf.sprintf "percentile of %d" n) pct p;
    Alcotest.(check (float 1e-9)) (Printf.sprintf "value of %d" n) value v;
    Alcotest.(check int) (Printf.sprintf "beyond of %d" n) beyond b
  in
  (* p98 of 503 has 10 samples beyond it; p99 would have 5 *)
  check 503 98.0 493.0 10;
  check 1000 99.0 990.0 10;
  check 100 90.0 90.0 10;
  check 159 90.0 144.0 15;
  check 20 50.0 10.0 10;
  Alcotest.(check bool) "10 samples have no tail" true (tail (floats 10) = None);
  Alcotest.(check bool) "no samples have no tail" true (tail [] = None)

let tail_is_order_free () =
  let xs = List.rev (floats 503) in
  let t = Option.get (tail xs) in
  Alcotest.(check (float 1e-9)) "unsorted input" 493.0 t.t_value

let median_rule () =
  Alcotest.(check (float 1e-9)) "odd" 2.0 (median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "even" 2.5 (median [ 4.0; 1.0; 3.0; 2.0 ])

let sp id parent name start stop alloc =
  {
    sp_id = id;
    sp_parent = parent;
    sp_name = name;
    sp_unit = 0;
    sp_start = Int64.of_int start;
    sp_stop = Int64.of_int stop;
    sp_alloc = alloc;
  }

let selfs spans =
  List.map (fun (s, ns, a) -> (s.sp_name, Int64.to_int ns, a)) (self spans)

let self_row = Alcotest.(triple string int (float 1e-9))

let nested () =
  let spans =
    [ sp 0 (-1) "outer" 0 100 50.0; sp 1 0 "mid" 10 40 20.0; sp 2 1 "inner" 20 30 5.0 ]
  in
  Alcotest.(check (list self_row))
    "each level loses only its own children"
    [ ("outer", 70, 30.0); ("mid", 20, 15.0); ("inner", 10, 5.0) ]
    (selfs spans)

let back_to_back () =
  let spans = [ sp 0 (-1) "p" 0 100 10.0; sp 1 0 "a" 0 50 4.0; sp 2 0 "b" 50 100 6.0 ] in
  Alcotest.(check (list self_row))
    "children that tile the parent leave it no self time"
    [ ("p", 0, 0.0); ("a", 50, 4.0); ("b", 50, 6.0) ]
    (selfs spans)

let overlap_and_clip () =
  let spans =
    [ sp 0 (-1) "p" 0 100 0.0; sp 1 0 "a" 0 60 0.0; sp 2 0 "b" 40 80 0.0; sp 3 0 "c" 90 130 0.0 ]
  in
  match selfs spans with
  | ("p", ns, _) :: _ ->
    (* a and b overlap on [40,60]; c is clipped to [90,100] *)
    Alcotest.(check int) "covered once, clipped to the parent" 10 ns
  | _ -> Alcotest.fail "parent missing"

let by_name () =
  let spans =
    [
      sp 0 (-1) "unit" 0 100 0.0;
      sp 1 0 "work" 0 30 0.0;
      sp 2 0 "work" 40 70 0.0;
      sp 3 (-1) "unit" 100 150 0.0;
    ]
  in
  let get n = fst (List.assoc n (self_by_name spans)) in
  Alcotest.(check (float 1e-12)) "repeated spans add up" 60e-9 (get "work");
  Alcotest.(check (float 1e-12)) "unit self time" 90e-9 (get "unit")

let subtree_of_root () =
  let spans =
    [
      sp 0 (-1) "setup" 0 10 0.0;
      sp 1 (-1) "pass" 10 100 0.0;
      sp 2 1 "a" 10 50 0.0;
      sp 3 2 "b" 20 30 0.0;
      sp 4 (-1) "after" 100 120 0.0;
    ]
  in
  Alcotest.(check (list int))
    "the root and its descendants only" [ 1; 2; 3 ]
    (List.sort compare (List.map (fun s -> s.sp_id) (subtree "pass" spans)));
  Alcotest.(check int) "no such root" 0 (List.length (subtree "none" spans))

let () =
  Alcotest.run "perfledger stats"
    [
      ( "percentiles",
        [
          Alcotest.test_case "tail rule" `Quick tail_rule;
          Alcotest.test_case "tail of unsorted samples" `Quick tail_is_order_free;
          Alcotest.test_case "median" `Quick median_rule;
        ] );
      ( "self time",
        [
          Alcotest.test_case "nested spans" `Quick nested;
          Alcotest.test_case "back-to-back spans" `Quick back_to_back;
          Alcotest.test_case "overlapping and overhanging children" `Quick overlap_and_clip;
          Alcotest.test_case "summed by name" `Quick by_name;
          Alcotest.test_case "subtree of a root" `Quick subtree_of_root;
        ] );
    ]
