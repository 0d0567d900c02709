(* Deterministic fan-out over domains.  See par.mli. *)

(* splitmix64 finalizer over base + (index+1) * golden gamma. *)
let seed ~base ~index =
  let open Int64 in
  let s = add base (mul (of_int (index + 1)) 0x9E3779B97F4A7C15L) in
  let z = mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let default_jobs () = Domain.recommended_domain_count ()

let max_domains_override = Atomic.make 0

let max_domains () =
  match Atomic.get max_domains_override with
  | n when n > 0 -> n
  | _ -> Domain.recommended_domain_count ()

let set_max_domains n = Atomic.set max_domains_override (max 1 n)

let map ?jobs xs f =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let n = List.length xs in
  let width = min (min jobs (max_domains ())) n in
  if width <= 1 then List.map f xs
  else begin
    let input = Array.of_list xs in
    let out = Array.make n None in
    let next = Atomic.make 0 in
    let failed = Atomic.make false in
    (* Claims are monotonic, so when index [i] fails every smaller index
       has already been claimed and will still run to completion. *)
    let rec work () =
      if not (Atomic.get failed) then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (out.(i) <-
             (match f input.(i) with
             | y -> Some (Ok y)
             | exception e ->
               Atomic.set failed true;
               Some (Error e)));
          work ()
        end
      end
    in
    let helpers = List.init (width - 1) (fun _ -> Domain.spawn work) in
    work ();
    List.iter Domain.join helpers;
    (* In index order: the first [Error] is the smallest failing index,
       and no unclaimed slot precedes it. *)
    Array.to_list out
    |> List.map (function
         | Some (Ok y) -> y
         | Some (Error e) -> raise e
         | None -> assert false)
  end
