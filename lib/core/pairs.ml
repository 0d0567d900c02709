(* Potential racy access pair generation (§3.3).

   An unprotected access at a label can race with (a) a concurrent
   execution of the same label in another thread, or (b) any other
   access to the same field of a potentially-aliased owner from another
   thread — provided at least one side writes.  Accesses inside
   constructors are discarded (§4), as are accesses whose owner cannot
   be described as a client-visible I-path (nothing to steer). *)

type endpoint = {
  ep_qname : string; (* client-level method a thread must invoke *)
  ep_cls : Jir.Ast.id;
  ep_meth : Jir.Ast.id;
  ep_occurrence : int; (* which seed-trace invocation to replay for objects *)
  ep_owner_path : Sym.t; (* where the racy field's owner sits *)
  ep_owner_cls : string option;
  ep_root_cls : string option; (* class of the I-path's root object *)
  ep_site : Runtime.Event.site;
  ep_kind : Access.kind;
  ep_label : Runtime.Event.label;
}

type pair = { p_field : Jir.Ast.id; p_a : endpoint; p_b : endpoint }

let endpoint_of (a : Access.acc) : endpoint option =
  match (a.Access.acc_anchor, a.Access.acc_owner_path) with
  | Some an, Some path ->
    Some
      {
        ep_qname = an.Access.an_qname;
        ep_cls = an.Access.an_cls;
        ep_meth = an.Access.an_meth;
        ep_occurrence = an.Access.an_occurrence;
        ep_owner_path = path;
        ep_owner_cls = a.Access.acc_obj_cls;
        ep_root_cls = a.Access.acc_root_cls;
        ep_site = a.Access.acc_site;
        ep_kind = a.Access.acc_kind;
        ep_label = a.Access.acc_label;
      }
  | (Some _ | None), _ -> None

let pair_to_string p =
  Printf.sprintf "race pair on .%s: %s:%s (%s) <-> %s:%s (%s)" p.p_field
    p.p_a.ep_qname
    (Sym.to_string p.p_a.ep_owner_path)
    (Access.kind_to_string p.p_a.ep_kind)
    p.p_b.ep_qname
    (Sym.to_string p.p_b.ep_owner_path)
    (Access.kind_to_string p.p_b.ep_kind)

(* The static identity of a pair, for dedup: the unordered site pair
   (in [compare_site] order) plus the field. *)
let site_key field (sa : Runtime.Event.site) (sb : Runtime.Event.site) =
  if Runtime.Event.compare_site sa sb <= 0 then (sa, sb, field) else (sb, sa, field)

let key_of p = site_key p.p_field p.p_a.ep_site p.p_b.ep_site

(* Owners can alias only if their concrete classes are compatible (equal
   here: concrete classes from the same trace). *)
let owners_compatible (a : endpoint) (b : endpoint) =
  match (a.ep_owner_cls, b.ep_owner_cls) with
  | Some ca, Some cb -> String.equal ca cb
  | None, _ | _, None -> true

let usable (a : Access.acc) =
  a.Access.acc_in_lib && not a.Access.acc_in_ctor
  && a.Access.acc_anchor <> None
  && a.Access.acc_owner_path <> None

let generate ?fields (res : Access.result) : pair list =
  let all = List.filter usable res.Access.accesses in
  (* A pair joins two accesses of one field, so bucket the usable
     accesses by field once, each bucket in trace order, with its
     endpoint built once. *)
  let buckets = Hashtbl.create 32 in
  List.iter
    (fun (a : Access.acc) ->
      match endpoint_of a with
      | None -> ()
      | Some e ->
        let f = a.Access.acc_field in
        Hashtbl.replace buckets f
          ((a, e) :: Option.value ~default:[] (Hashtbl.find_opt buckets f)))
    (List.rev all);
  let wanted =
    match fields with None -> fun _ -> true | Some fs -> fun f -> List.mem f fs
  in
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let add field (ea : endpoint) (eb : endpoint) =
    let k = site_key field ea.ep_site eb.ep_site in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.replace seen k ();
      out := { p_field = field; p_a = ea; p_b = eb } :: !out
    end
  in
  List.iter
    (fun (u : Access.acc) ->
      let f = u.Access.acc_field in
      if u.Access.acc_unprot && wanted f then
        match endpoint_of u with
        | None -> ()
        | Some eu ->
          (* (a) the same label from two threads, for writes *)
          if u.Access.acc_kind = Access.Kwrite then add f eu eu;
          (* (b) any conflicting access to the same field *)
          List.iter
            (fun ((o : Access.acc), eo) ->
              if
                (u.Access.acc_kind = Access.Kwrite || o.Access.acc_kind = Access.Kwrite)
                && Runtime.Event.compare_site u.Access.acc_site o.Access.acc_site <> 0
                && owners_compatible eu eo
              then add f eu eo)
            (Hashtbl.find buckets f))
    all;
  List.rev !out
