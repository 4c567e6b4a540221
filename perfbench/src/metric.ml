(* Named metrics with units, and the one-line JSON result the benchmark
   prints last. *)

type t = { name : string; unit_ : string; value : float }

let name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '-'

let unit_char c = name_char c || c = '/' || c = '%'

let valid_name s =
  String.length s >= 1
  && String.length s <= 64
  && (match s.[0] with
     | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
     | _ -> false)
  && String.for_all name_char s

let valid_unit u = String.length u >= 1 && String.length u <= 16 && String.for_all unit_char u

let make name unit_ value =
  if not (valid_name name) then invalid_arg ("Metric.make: bad metric name " ^ name);
  if not (valid_unit unit_) then
    invalid_arg (Printf.sprintf "Metric.make: bad unit %S for %s" unit_ name);
  if not (Float.is_finite value) then invalid_arg ("Metric.make: non-finite value for " ^ name);
  { name; unit_; value }

(* Every digit the float carries: the shortest %.{15,16,17}g rendering
   that reads back as the same value. *)
let float_repr f =
  let rec go p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || float_of_string s = f then s else go (p + 1)
  in
  go 15

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let result_line ~correct ~attempted ~failed metrics =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun m ->
      if Hashtbl.mem seen m.name then invalid_arg ("Metric.result_line: duplicate " ^ m.name);
      Hashtbl.add seen m.name ())
    metrics;
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
          (float_repr m.value) (json_string m.unit_))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " ms)

let pp_table ppf metrics =
  List.iter
    (fun m -> Format.fprintf ppf "  %-36s %16s %s@." m.name (float_repr m.value) m.unit_)
    metrics
