(* Workload [crucible]: a Crucible campaign, one unit per generated
   program. *)

open Pass
module T = Tracer

(* The programs are those of the Crucible campaign at seed 12345; the
   run's seed drives the oracles' VM and scheduler seeds.  Programs
   differ in cost by orders of magnitude, so a program set drawn per
   seed would make a pass's cost a lottery; a fixed set keeps the work
   comparable from seed to seed.  At seed 12345 a pass is exactly the
   campaign [narada fuzz --count 100 --seed 12345] runs. *)
let campaign = 12345L

let programs = 100
let program_seed i = Par.seed ~base:campaign ~index:i
let check_seed seed i = Par.seed ~base:seed ~index:i

(* Set-up generates the campaign's programs; the pass checks them. *)
let setup _seed =
  T.with_ "fuzz.gen" (fun () ->
      Array.init programs (fun i -> Fuzz.Gen.generate ~seed:(program_seed i)))

let oracle_children =
  List.map (fun n -> T.Node ("fuzz/oracle/" ^ n, "fuzz.oracle." ^ n, [])) Fuzz.Oracle.names

let body ~traced:_ seed progs _c unit_ =
  List.init programs (fun i ->
      unit_ (fun () ->
          T.with_ ~obs:(T.obs_reader oracle_children) "fuzz.check" (fun () ->
              Fuzz.Oracle.check ~seed:(check_seed seed i) progs.(i))))

let pass_counts verdicts =
  List.map
    (fun name ->
      ( name,
        List.length
          (List.filter (fun vs -> List.assoc_opt name vs = Some Fuzz.Oracle.Pass) verdicts) ))
    Fuzz.Oracle.names

(* Every oracle must pass on every program. *)
let check _c verdicts =
  let violations =
    List.concat
      (List.mapi
         (fun i vs ->
           List.filter_map
             (fun (n, v) ->
               match v with
               | Fuzz.Oracle.Pass -> None
               | Fuzz.Oracle.Fail d -> Some (Printf.sprintf "program #%d: oracle %s: %s" i n d))
             vs)
         verdicts)
  in
  let short =
    List.filter_map
      (fun (n, k) ->
        if k = programs then None
        else Some (Printf.sprintf "oracle %s passed %d of %d programs" n k programs))
      (pass_counts verdicts)
  in
  {
    answer =
      String.concat " "
        (List.map (fun (n, k) -> Printf.sprintf "%s=%d" n k) (pass_counts verdicts));
    attempted = List.length verdicts;
    failed = List.length (List.filter (List.exists (fun (_, v) -> v <> Fuzz.Oracle.Pass)) verdicts);
    problems = violations @ short;
    notes = [];
  }

(* [Crucible.run] must agree with the per-program verdicts; it
   checks each program under the program's own seed, so the comparison
   is made at the campaign seed only. *)
let api_check seed verdicts =
  if seed <> campaign then []
  else begin
    let rp =
      Fuzz.Crucible.run
        { Fuzz.Crucible.default_options with o_count = programs; o_seed = campaign; o_jobs = 1 }
    in
    let clean = List.for_all (List.for_all (fun (_, v) -> v = Fuzz.Oracle.Pass)) verdicts in
    (if Fuzz.Crucible.ok rp = clean then [] else [ "Crucible.ok disagrees with the verdicts" ])
    @
    if rp.Fuzz.Crucible.rp_pass = pass_counts verdicts then []
    else [ "Crucible.run pass counts differ from the per-program verdicts" ]
  end
