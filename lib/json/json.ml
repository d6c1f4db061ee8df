(* The one JSON implementation of the repository: a small value type, a
   single-line printer and a strict recursive-descent parser.  Every JSON
   surface (trace lines, EXPLAIN trees, lint/check reports, server
   responses, the bench documents) builds [t] values and prints them here,
   so escaping and number formatting cannot drift between emitters. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---------------- printing ---------------- *)

(* Control characters are escaped; well-formed UTF-8 sequences are copied
   through; any byte that does not start one (say a Latin-1 0xE9) becomes
   U+FFFD, so the output is always valid UTF-8. *)
let buf_escaped b s =
  Buffer.add_char b '"';
  let rec go i =
    if i < String.length s then begin
      let d = String.get_utf_8_uchar s i in
      let valid = Uchar.utf_decode_is_valid d in
      let len = if valid then Uchar.utf_decode_length d else 1 in
      (match s.[i] with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when c < ' ' ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | _ when valid -> Buffer.add_substring b s i len
      | _ -> Buffer.add_string b "\\ufffd");
      go (i + len)
    end
  in
  go 0;
  Buffer.add_char b '"'

let to_string j =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f ->
        (* JSON has no NaN/Infinity; clamp to null like most printers. *)
        if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then
          Buffer.add_string b "null"
        else if Float.is_integer f && Float.abs f < 1e15 then
          Buffer.add_string b (Printf.sprintf "%.1f" f)
        else Buffer.add_string b (Printf.sprintf "%.12g" f)
    | Str s -> buf_escaped b s
    | List items ->
        Buffer.add_char b '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char b ',';
            go item)
          items;
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            buf_escaped b k;
            Buffer.add_char b ':';
            go v)
          fields;
        Buffer.add_char b '}'
  in
  go j;
  Buffer.contents b

(* ---------------- parsing ---------------- *)

exception Bad of string

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (pos := !pos + l; value)
    else fail ("bad literal (expected " ^ word ^ ")")
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let h = String.sub s !pos 4 in
    let hex = function
      | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
      | _ -> false
    in
    if not (String.for_all hex h) then fail "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ h)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        (if !pos >= n then fail "unterminated escape";
         let e = s.[!pos] in
         advance ();
         match e with
         | '"' -> Buffer.add_char b '"'
         | '\\' -> Buffer.add_char b '\\'
         | '/' -> Buffer.add_char b '/'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'n' -> Buffer.add_char b '\n'
         | 'r' -> Buffer.add_char b '\r'
         | 't' -> Buffer.add_char b '\t'
         | 'u' ->
             (* decode to UTF-8, combining surrogate pairs *)
             let code = hex4 () in
             let code =
               if code >= 0xD800 && code <= 0xDBFF then
                 (* high surrogate: require the paired low surrogate *)
                 if !pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                 then begin
                   pos := !pos + 2;
                   let low = hex4 () in
                   if low >= 0xDC00 && low <= 0xDFFF then
                     0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
                   else fail "unpaired surrogate"
                 end
                 else fail "unpaired surrogate"
               else code
             in
             if not (Uchar.is_valid code) then fail "unpaired surrogate";
             Buffer.add_utf_8_uchar b (Uchar.of_int code)
         | _ -> fail "unknown escape");
        go ()
      end
      else if Char.code c < 0x20 then fail "raw control character in string"
      else begin
        Buffer.add_char b c;
        go ()
      end
    in
    go ()
  in
  (* The JSON number grammar exactly: an optional '-', then 0 or a digit
     run without a leading zero, then an optional fraction and exponent,
     each with at least one digit.  So "+5", "01", ".5" and "1." are
     errors.  Integers that overflow [int] read as floats. *)
  let parse_number () =
    let start = !pos in
    let digits () =
      let from = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do advance () done;
      if !pos = from then fail "bad number"
    in
    if peek () = Some '-' then advance ();
    (match peek () with
    | Some '0' -> advance ()
    | Some '1' .. '9' -> digits ()
    | _ -> fail "bad number");
    let frac = peek () = Some '.' in
    if frac then (advance (); digits ());
    let exp = match peek () with Some ('e' | 'E') -> true | _ -> false in
    if exp then begin
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    end;
    let text = String.sub s start (!pos - start) in
    match if frac || exp then None else int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (float_of_string text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Obj [])
        else
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields ((k, v) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); List [])
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing characters after value";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error ("bad JSON: " ^ msg)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None
