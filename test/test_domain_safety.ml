(* Domain safety as a checked property.  Every library under lib/ is
   reachable from a Pool task, and an OCaml 5 lazy is not domain-safe: two
   domains forcing the same suspension can raise CamlinternalLazy.Undefined.
   This scans the library sources (copied next to the test by the dune
   [source_tree] dependency) and fails on any [lazy] / [Lazy.] outside
   comments and string literals.  Module-level state that needs one-time
   initialisation is computed eagerly at module init instead. *)

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

let is_ident_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* [src] with comments (nested), string literals, quoted strings
   [{id|...|id}] and character literals blanked out; newlines survive, so
   offsets still map to the original line numbers *)
let code_only src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i = if src.[i] <> '\n' then Bytes.set out i ' ' in
  let blank_range a b =
    for i = a to min (n - 1) (b - 1) do
      blank i
    done
  in
  (* end (exclusive) of the "..." literal opening at [i] *)
  let rec string_end i =
    if i >= n then n
    else
      match src.[i] with
      | '\\' -> string_end (i + 2)
      | '"' -> i + 1
      | _ -> string_end (i + 1)
  in
  (* [Some end] when a quoted string opens at [i]: a brace, an optional
     lowercase id, a bar *)
  let quoted_end i =
    let j = ref (i + 1) in
    while !j < n && (match src.[!j] with 'a' .. 'z' | '_' -> true | _ -> false) do
      incr j
    done;
    if !j < n && src.[!j] = '|' then
      let closing = "|" ^ String.sub src (i + 1) (!j - i - 1) ^ "}" in
      let cl = String.length closing in
      let rec find k =
        if k + cl > n then n
        else if String.sub src k cl = closing then k + cl
        else find (k + 1)
      in
      Some (find (!j + 1))
    else None
  in
  (* [Some end] when a character literal opens at [i]; a bare quote is a
     type variable or an identifier prime *)
  let char_end i =
    if i + 2 < n && src.[i + 1] <> '\\' && src.[i + 2] = '\'' then Some (i + 3)
    else if i + 1 < n && src.[i + 1] = '\\' then
      match String.index_from_opt src (i + 2) '\'' with
      | Some k when k - i <= 5 -> Some (k + 1)
      | _ -> None
    else None
  in
  (* end (exclusive) of the comment opening at [i]; strings inside
     comments are lexed, as the compiler does *)
  let rec comment_end i depth =
    if i >= n then n
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then
      comment_end (i + 2) (depth + 1)
    else if i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' then
      if depth = 1 then i + 2 else comment_end (i + 2) (depth - 1)
    else if src.[i] = '"' then comment_end (string_end (i + 1)) depth
    else if src.[i] = '{' then
      match quoted_end i with
      | Some e -> comment_end e depth
      | None -> comment_end (i + 1) depth
    else comment_end (i + 1) depth
  in
  let rec go i =
    if i < n then
      if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then begin
        let e = comment_end (i + 2) 1 in
        blank_range i e;
        go e
      end
      else if src.[i] = '"' then begin
        let e = string_end (i + 1) in
        blank_range i e;
        go e
      end
      else if src.[i] = '{' then
        match quoted_end i with
        | Some e ->
            blank_range i e;
            go e
        | None -> go (i + 1)
      else if src.[i] = '\'' && (i = 0 || not (is_ident_char src.[i - 1])) then
        match char_end i with
        | Some e ->
            blank_range i e;
            go e
        | None -> go (i + 1)
      else go (i + 1)
  in
  go 0;
  Bytes.to_string out

(* 1-based line numbers of every [lazy] keyword or [Lazy.] path in [src] *)
let lazy_lines src =
  let code = code_only src in
  let n = String.length code in
  let line_of i =
    let l = ref 1 in
    String.iteri (fun k c -> if k < i && c = '\n' then incr l) code;
    !l
  in
  let rec scan i acc =
    if i >= n then List.rev acc
    else if is_ident_char code.[i] && (i = 0 || not (is_ident_char code.[i - 1]))
    then begin
      let j = ref i in
      while !j < n && is_ident_char code.[!j] do
        incr j
      done;
      let word = String.sub code i (!j - i) in
      let hit =
        word = "lazy" || (word = "Lazy" && !j < n && code.[!j] = '.')
      in
      scan !j (if hit then line_of i :: acc else acc)
    end
    else scan (i + 1) acc
  in
  scan 0 []

let rec sources dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.concat_map (fun name ->
         let p = Filename.concat dir name in
         if Sys.is_directory p then sources p
         else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
         then [ p ]
         else [])

let read_file p = In_channel.with_open_bin p In_channel.input_all

let test_scanner_flags_and_ignores () =
  check_b "keyword" true (lazy_lines "let x = lazy 1" = [ 1 ]);
  check_b "module path" true (lazy_lines "let y =\n  Lazy.force x" = [ 2 ]);
  check_b "comment" true (lazy_lines "(* lazy (* Lazy.force *) *) let a = 1" = []);
  check_b "string" true (lazy_lines "let s = \"lazy \\\" Lazy.x\"" = []);
  check_b "quoted string" true (lazy_lines "let s = {re|lazy|re}" = []);
  check_b "identifier" true (lazy_lines "let lazy_ok = is_lazy" = []);
  check_b "char literal" true (lazy_lines "let q = '\"' in lazy q" = [ 1 ]);
  check_b "string in comment" true
    (lazy_lines "(* \"*)\" lazy *) let z = 0" = [])

let test_lib_has_no_lazy () =
  (* [dune test] runs from the build's test directory; [dune exec] from
     the project root *)
  let files = sources (if Sys.file_exists "../lib" then "../lib" else "lib") in
  (* guards against a vacuous pass if the source_tree dependency breaks *)
  check_b "library sources found" true
    (List.exists (fun p -> Filename.basename p = "telemetry.ml") files);
  let offenders =
    List.concat_map
      (fun p ->
        List.map (fun l -> Printf.sprintf "%s:%d" p l) (lazy_lines (read_file p)))
      files
  in
  List.iter (Printf.eprintf "lazy value in library code: %s\n") offenders;
  check_i "lazy values in lib/" 0 (List.length offenders)

let suite =
  [
    ("scanner flags and ignores", `Quick, test_scanner_flags_and_ignores);
    ("lib has no lazy", `Quick, test_lib_has_no_lazy);
  ]
