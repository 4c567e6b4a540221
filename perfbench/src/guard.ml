(* The environment guard and the run metadata.

   Every library knob that changes what is measured is an environment
   variable ([CGQP_ENGINE], [CGQP_MEM_BUDGET], [CGQP_DOMAINS],
   [CGQP_TEMPLATE_CACHE], [CGQP_SEED], ...), and [OCAMLRUNPARAM] retunes
   the GC. The benchmark measures the library's defaults, so it refuses
   to run while any of them is set: a later change to a default must
   show up, and a stray variable must not. *)

let forbidden name =
  String.starts_with ~prefix:"CGQP_" name
  || String.equal name "OCAMLRUNPARAM"
  || String.equal name "CAMLRUNPARAM"

let offending env =
  List.filter_map
    (fun kv ->
      match String.index_opt kv '=' with
      | Some i ->
        let name = String.sub kv 0 i in
        if forbidden name then Some name else None
      | None -> None)
    (Array.to_list env)

let check () =
  match offending (Unix.environment ()) with
  | [] -> Ok ()
  | names ->
    Error
      (Printf.sprintf
         "refusing to run with library knobs set (%s): the benchmark measures the \
          library's defaults; unset them and retry"
         (String.concat ", " names))

let metadata ~workload ~seed ~seconds ~trace ~rev ~engine =
  Obs.Json.(
    Obj
      [
        ("workload", Str workload);
        ("seed", Num (float_of_int seed));
        ("seconds", Num (float_of_int seconds));
        ("trace", Bool trace);
        ("engine", Str (Exec.Engine.to_string engine));
        ("pool_width", Num (float_of_int (Service.Pool.default_domains ())));
        ("host_cores", Num (float_of_int (Domain.recommended_domain_count ())));
        ("ocaml", Str Sys.ocaml_version);
        ("rev", Str rev);
      ])
