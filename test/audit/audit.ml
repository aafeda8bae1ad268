(* Exported-value audit.

   Reads the typed trees (.cmti and .cmt) that the compiler writes under
   _build and lists every [val] declared in a library interface under the
   definition directories that no other module under the user directories
   references.  A module alias ([module M = Fbsr_util.Metrics]) is seen
   through: [M.x] is a reference to [Fbsr_util.Metrics.x].  A module that
   is used as a whole -- a functor argument, an [include] or a
   [(module M)] pack -- counts as a use of every value in it.  A value
   used only by its own implementation has no caller: it belongs out of
   the interface.

   Each value it lists must be on the allowlist, one line per value with
   the test or oracle that needs it; an allowlist line whose value is gone
   or has a caller is stale.  A module none of whose exported values has
   a caller is code that only tests reach, and no allowlist line excuses
   it: it belongs out of the audited libraries.  Any unlisted value, stale
   line or such module fails the run (exit 1).

   Usage: audit.exe -root DIR -defs D [-exclude D] -uses D ... -allowlist F
   where D are directories relative to DIR, the build directory of the
   project's default context. *)

let root = ref "."
let defs = ref []
let excludes = ref []
let uses = ref []
let allowlist = ref ""

let spec =
  [ ("-root", Arg.Set_string root, "DIR build directory the others are relative to");
    ("-defs", Arg.String (fun d -> defs := d :: !defs), "D interfaces to audit");
    ("-exclude", Arg.String (fun d -> excludes := d :: !excludes), "D skip this subdirectory");
    ("-uses", Arg.String (fun d -> uses := d :: !uses), "D modules whose references count");
    ("-allowlist", Arg.Set_string allowlist, "F values kept for a test or oracle") ]

(* Compiled artifacts sit in the hidden [.NAME.objs/byte] and
   [.NAME.eobjs/byte] directories dune writes next to the sources. *)
let rec artifacts dir ext =
  let full = Filename.concat !root dir in
  if List.mem dir !excludes || not (Sys.file_exists full) then []
  else
    Sys.readdir full |> Array.to_list |> List.sort compare
    |> List.concat_map (fun entry ->
           let path = Filename.concat dir entry in
           if Sys.is_directory (Filename.concat !root path) then artifacts path ext
           else if Filename.check_suffix entry ext && Filename.basename dir = "byte"
           then [ Filename.concat !root path ]
           else [])

(* [Fbsr_fbs__Engine] is shown as [Fbsr_fbs.Engine]. *)
let display unit path =
  let n = String.length unit in
  let rec split i =
    if i + 1 >= n then unit
    else if unit.[i] = '_' && unit.[i + 1] = '_' then
      String.sub unit 0 i ^ "." ^ String.sub unit (i + 2) (n - i - 2)
    else split (i + 1)
  in
  String.concat "." (split 0 :: path)

type value = { unit : string; path : string list; name : string; where : string }

(* The values an interface declares, nested module signatures included;
   module types declare no value. *)
let declared file =
  let cmt = Cmt_format.read_cmt file in
  match cmt.Cmt_format.cmt_annots with
  | Cmt_format.Interface sg ->
      let source = Option.value cmt.cmt_sourcefile ~default:file in
      let rec items prefix sg =
        List.concat_map
          (fun item ->
            match item.Typedtree.sig_desc with
            | Typedtree.Tsig_value vd ->
                let path = prefix @ [ vd.val_name.txt ] in
                let line = vd.val_loc.loc_start.pos_lnum in
                [ { unit = cmt.cmt_modname; path;
                    name = display cmt.cmt_modname path;
                    where = Printf.sprintf "%s:%d" source line } ]
            | Typedtree.Tsig_module
                { md_name = { txt = Some name; _ };
                  md_type = { mty_desc = Typedtree.Tmty_signature sg; _ }; _ } ->
                items (prefix @ [ name ]) sg
            | _ -> [])
          sg.Typedtree.sig_items
      in
      items [] sg
  | _ -> []

(* Local module aliases, by the unique name of the alias's ident. *)
let aliases : (string, string list) Hashtbl.t = Hashtbl.create 64

let rec names = function
  | Path.Pident id -> (
      match Hashtbl.find_opt aliases (Ident.unique_name id) with
      | Some target -> Some target
      | None -> Some [ Ident.name id ])
  | Path.Pdot (p, s) -> Option.map (fun l -> l @ [ s ]) (names p)
  | _ -> None

(* Resolve a path to the compilation unit it names and the path inside it:
   [Fbsr_fbs.Engine.x], [Fbsr_fbs__.Engine.x] (the alias module of a
   library with its own main module) and [Fbsr_fbs__Engine.x] all name
   unit [Fbsr_fbs__Engine]. *)
let resolve units p =
  match names p with
  | Some (first :: rest) when Hashtbl.mem units first -> Some (first, rest)
  | Some (first :: second :: rest) ->
      let sep =
        if String.length first > 2
           && String.sub first (String.length first - 2) 2 = "__"
        then "" else "__"
      in
      let unit = first ^ sep ^ second in
      if Hashtbl.mem units unit then Some (unit, rest) else None
  | _ -> None

let rec is_prefix a b =
  match (a, b) with
  | [], _ -> true
  | x :: a, y :: b -> x = y && is_prefix a b
  | _ :: _, [] -> false

(* Every (unit, path) a module references outside itself: [`Value] for a
   value, [`Module] for a module used as a whole.  The alias module dune
   generates for a wrapped library (its [.ml-gen]) names every module of
   the library and uses none. *)
let references units file =
  let cmt = Cmt_format.read_cmt file in
  let self = cmt.Cmt_format.cmt_modname in
  let generated =
    match cmt.cmt_sourcefile with
    | Some f -> Filename.check_suffix f ".ml-gen"
    | None -> true
  in
  let found = ref [] in
  let note kind p =
    match resolve units p with
    | Some (unit, path) when unit <> self -> found := (kind, unit, path) :: !found
    | _ -> ()
  in
  let open Tast_iterator in
  let it =
    { default_iterator with
      expr =
        (fun sub e ->
          (match e.Typedtree.exp_desc with
           | Typedtree.Texp_ident (p, _, _) -> note `Value p
           | _ -> ());
          default_iterator.expr sub e);
      module_expr =
        (fun sub m ->
          (match m.Typedtree.mod_desc with
           | Typedtree.Tmod_ident (p, _) -> note `Module p
           | _ -> ());
          default_iterator.module_expr sub m);
      module_binding =
        (fun sub mb ->
          match mb with
          | { mb_id = Some id;
              mb_expr = { mod_desc = Typedtree.Tmod_ident (p, _); _ }; _ } ->
              Option.iter
                (Hashtbl.replace aliases (Ident.unique_name id))
                (names p)
          | _ -> default_iterator.module_binding sub mb);
      (* [open M] brings names into scope; each one used is a
         [Texp_ident] of its own. *)
      open_declaration = (fun _ _ -> ()) }
  in
  (match cmt.cmt_annots with
   | _ when generated -> ()
   | Cmt_format.Implementation str -> it.structure it str
   | Cmt_format.Interface sg -> it.signature it sg
   | _ -> ());
  !found

let read_allowlist file =
  let ic = open_in file in
  let rec loop n acc =
    match input_line ic with
    | exception End_of_file -> close_in ic; List.rev acc
    | line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then loop (n + 1) acc
        else
          let name, reason =
            match String.index_opt line ' ' with
            | Some i ->
                (String.sub line 0 i,
                 String.trim (String.sub line i (String.length line - i)))
            | None -> (line, "")
          in
          loop (n + 1) ((name, reason, n) :: acc)
  in
  loop 1 []

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad a)) "audit.exe [options]";
  let values = List.concat_map (fun d -> artifacts d ".cmti") (List.rev !defs)
               |> List.concat_map declared in
  let units = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace units v.unit ()) values;
  let refs =
    List.concat_map
      (fun d -> artifacts d ".cmt" @ artifacts d ".cmti")
      (List.rev !uses)
    |> List.concat_map (references units)
  in
  let by_unit = Hashtbl.create 64 in
  List.iter (fun (kind, unit, path) -> Hashtbl.add by_unit unit (kind, path)) refs;
  let used v =
    List.exists
      (function
        | `Value, path -> path = v.path
        | `Module, path -> is_prefix path v.path)
      (Hashtbl.find_all by_unit v.unit)
  in
  let unused = List.filter (fun v -> not (used v)) values in
  let allowed = if !allowlist = "" then [] else read_allowlist !allowlist in
  let failures = ref 0 in
  let fail fmt = incr failures; Printf.printf fmt in
  List.iter
    (fun (name, reason, line) ->
      let where = Printf.sprintf "%s:%d" !allowlist line in
      match List.find_opt (fun v -> v.name = name) values with
      | None -> fail "%s: stale entry %s: no such exported value\n" where name
      | Some v when used v ->
          fail "%s: stale entry %s: it has a caller\n" where name
      | Some _ when reason = "" ->
          fail "%s: entry %s names no test or oracle\n" where name
      | Some _ -> ())
    allowed;
  let unused = List.sort (fun a b -> compare a.name b.name) unused in
  List.iter
    (fun v ->
      if not (List.exists (fun (n, _, _) -> n = v.name) allowed) then
        fail "%s: %s has no caller outside its module\n" v.where v.name)
    unused;
  let units = List.sort_uniq compare (List.map (fun v -> v.unit) values) in
  List.iter
    (fun unit ->
      match List.filter (fun v -> v.unit = unit) values with
      | first :: _ as declared when not (List.exists used declared) ->
          fail "%s: module %s: none of its %d exported values has a caller outside it\n"
            first.where (display unit []) (List.length declared)
      | _ -> ())
    units;
  Printf.printf "%d exported values, %d without a caller, %d allowlisted\n"
    (List.length values) (List.length unused) (List.length allowed);
  if !failures > 0 then exit 1
