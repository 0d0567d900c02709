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

(* The static identity of a pair, for dedup: unordered (site, site) plus
   the field. *)
let key_of p =
  let sa = Runtime.Event.site_to_string p.p_a.ep_site in
  let sb = Runtime.Event.site_to_string p.p_b.ep_site in
  if String.compare sa sb <= 0 then (sa, sb, p.p_field) else (sb, sa, p.p_field)

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

let generate (res : Access.result) : pair list =
  let all = List.filter usable res.Access.accesses in
  let unprot = List.filter (fun a -> a.Access.acc_unprot) all in
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let add p =
    let k = key_of p in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.replace seen k ();
      out := p :: !out
    end
  in
  List.iter
    (fun (u : Access.acc) ->
      match endpoint_of u with
      | None -> ()
      | Some eu ->
        (* (a) the same label from two threads, for writes *)
        if u.Access.acc_kind = Access.Kwrite then
          add { p_field = u.Access.acc_field; p_a = eu; p_b = eu };
        (* (b) any conflicting access to the same field *)
        List.iter
          (fun (o : Access.acc) ->
            if
              String.equal o.Access.acc_field u.Access.acc_field
              && (u.Access.acc_kind = Access.Kwrite
                 || o.Access.acc_kind = Access.Kwrite)
              && not
                   (Runtime.Event.compare_site u.Access.acc_site
                      o.Access.acc_site
                    = 0)
            then
              match endpoint_of o with
              | Some eo when owners_compatible eu eo ->
                add { p_field = u.Access.acc_field; p_a = eu; p_b = eo }
              | Some _ | None -> ())
          all)
    unprot;
  List.rev !out
