(* The ledger's statistics, kept free of the program's libraries so the
   rules can be tested on their own: medians, the tail-percentile rule
   and self time over a span tree. *)

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median (xs : float list) : float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest rank of percentile [p] among [n] sorted samples, 1-based. *)
let rank ~p n =
  let r = int_of_float (Float.ceil (p *. float_of_int n /. 100.0 -. 1e-9)) in
  max 1 (min n r)

(* Percentiles tried for the tail, highest first. *)
let ladder = [ 99.9; 99.5; 99.0; 98.0; 95.0; 90.0; 75.0; 50.0 ]

type tail = {
  t_pct : float;  (** the percentile reported *)
  t_value : float;
  t_beyond : int;  (** samples ranked above it *)
  t_samples : int;
}

(* The highest percentile of the ladder that still has at least 10
   samples ranked beyond it, so the tail is never one outlier.  [None]
   when even the median has too few. *)
let tail (xs : float list) : tail option =
  let a = sorted xs in
  let n = Array.length a in
  List.find_map
    (fun p ->
      let r = rank ~p n in
      if n - r >= 10 then
        Some { t_pct = p; t_value = a.(r - 1); t_beyond = n - r; t_samples = n }
      else None)
    ladder

(* ---- spans ---- *)

type span = {
  sp_id : int;
  sp_parent : int;  (** [-1] for a root *)
  sp_name : string;
  sp_unit : int;  (** shared by every span of one unit; [-1] outside units *)
  sp_start : int64;  (** ns *)
  sp_stop : int64;
  sp_alloc : float;  (** words allocated between start and stop *)
}

let duration s = Int64.sub s.sp_stop s.sp_start

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi (intervals : (int64 * int64) list) : int64 =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if Int64.compare a b < 0 then Some (a, b) else None)
      intervals
  in
  let clipped = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if Int64.compare a cb <= 0 then (total, Some (ca, max cb b))
          else (Int64.add total (Int64.sub cb ca), Some (a, b)))
      (0L, None) clipped
  in
  match last with None -> total | Some (a, b) -> Int64.add total (Int64.sub b a)

(* Self time and self allocation of every span: its own measure minus
   what its direct children cover.  Children that overlap each other are
   counted once for time. *)
let self (spans : span list) : (span * int64 * float) list =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.sp_parent >= 0 then Hashtbl.add children s.sp_parent s)
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.sp_id in
      let cov =
        covered ~lo:s.sp_start ~hi:s.sp_stop
          (List.map (fun k -> (k.sp_start, k.sp_stop)) kids)
      in
      let kid_alloc = List.fold_left (fun a k -> a +. k.sp_alloc) 0.0 kids in
      (s, Int64.sub (duration s) cov, s.sp_alloc -. kid_alloc))
    spans

(* The first root span named [name] and every span under it. *)
let subtree name (spans : span list) : span list =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.sp_parent s) spans;
  match List.find_opt (fun s -> s.sp_parent < 0 && s.sp_name = name) spans with
  | None -> []
  | Some root ->
    let rec down s = s :: List.concat_map down (Hashtbl.find_all children s.sp_id) in
    down root

(* Self time and self allocation summed per span name. *)
let self_by_name (spans : span list) : (string * (float * float)) list =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, ns, alloc) ->
      let t, a =
        Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt tbl s.sp_name)
      in
      Hashtbl.replace tbl s.sp_name
        (t +. (Int64.to_float ns /. 1e9), a +. alloc))
    (self spans);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
