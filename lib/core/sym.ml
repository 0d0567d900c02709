(* Client-visible access paths ("I-paths", §3.2 of the paper).

   The analysis rewrites every client-invoked library method so the
   receiver and parameters are captured in frozen variables I0, I1, ...
   (the paper's I_this, I_z); return values get I_r.  An access path
   [I_i.f1...fk] then describes how a client-controlled object reaches
   the owner of an access — the information pair generation and context
   derivation are built on. *)

type root =
  | Recv (* I0: the receiver *)
  | Arg of int (* I_k: k-th parameter, 1-based *)
  | Ret (* I_r: the return value *)

type t = { root : root; fields : string list }

let make root fields = { root; fields }
let of_root root = { root; fields = [] }

let equal_root a b =
  match (a, b) with
  | Recv, Recv | Ret, Ret -> true
  | Arg i, Arg j -> Int.equal i j
  | (Recv | Arg _ | Ret), _ -> false

let compare_root a b =
  let rank = function Recv -> 0 | Arg i -> 1 + i | Ret -> max_int in
  Int.compare (rank a) (rank b)

let equal a b = equal_root a.root b.root && List.equal String.equal a.fields b.fields

let compare a b =
  match compare_root a.root b.root with
  | 0 -> List.compare String.compare a.fields b.fields
  | c -> c

let root_to_string = function
  | Recv -> "I0"
  | Arg i -> Printf.sprintf "I%d" i
  | Ret -> "Ir"

let to_string { root; fields } =
  String.concat "." (root_to_string root :: fields)

let pp fmt t = Format.pp_print_string fmt (to_string t)

let append t f = { t with fields = t.fields @ [ f ] }

let depth t = List.length t.fields

(* [strip_prefix ~prefix t]: the remaining fields of [t] after removing
   [prefix] (same root, prefix of the field list). *)
let strip_prefix ~prefix t =
  if not (equal_root prefix.root t.root) then None
  else
    let rec go p f =
      match (p, f) with
      | [], rest -> Some rest
      | x :: p', y :: f' when String.equal x y -> go p' f'
      | _ :: _, _ -> None
    in
    go prefix.fields t.fields
