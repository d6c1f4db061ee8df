(* Recursive-descent parser for the paper's SQL subset.

   Grammar (WHERE clauses are conjunctions, as in [KIM 82] and the paper):

     query      ::= SELECT [DISTINCT] items FROM froms
                    [WHERE pred (AND pred)*] [GROUP BY cols]
                    [ORDER BY col [ASC|DESC] (',' ...)*] [';']
     items      ::= item (',' item)*        item ::= '*' | agg | colref
     agg        ::= (COUNT|MAX|MIN|SUM|AVG) '(' ('*' | colref) ')'
     froms      ::= rel [AS? alias] (',' rel [AS? alias])*
     pred       ::= EXISTS '(' query ')'
                  | NOT EXISTS '(' query ')'
                  | scalar ( [IS] IN '(' query ')'
                           | NOT IN '(' query ')'
                           | cmp [ANY|ALL] rhs )
     rhs        ::= '(' query ')' | scalar
     scalar     ::= colref | INT | FLOAT | STRING | NULL
     colref     ::= IDENT ['.' IDENT]

   The paper's "IS IN" spelling is accepted as a synonym for IN.  OR is
   rejected with a dedicated message, since the transformation algorithms
   are defined for conjunctive WHERE clauses only. *)

open Ast

exception Error of Lexer.position * string

type state = { mutable toks : (Lexer.token * Lexer.position) list }

let peek st =
  match st.toks with
  | (t, _) :: _ -> t
  | [] -> Lexer.EOF

let peek2 st =
  match st.toks with
  | _ :: (t, _) :: _ -> t
  | _ -> Lexer.EOF

let pos st =
  match st.toks with
  | (_, p) :: _ -> p
  | [] -> { Lexer.line = 0; col = 0 }

let advance st =
  match st.toks with
  | _ :: rest -> st.toks <- rest
  | [] -> ()

let fail st msg = raise (Error (pos st, msg))

let expect st tok =
  if peek st = tok then advance st
  else
    fail st
      (Printf.sprintf "expected %s but found %s" (Lexer.token_name tok)
         (Lexer.token_name (peek st)))

let parse_ident st =
  match peek st with
  | Lexer.IDENT s ->
      advance st;
      s
  | t -> fail st (Printf.sprintf "expected identifier, found %s" (Lexer.token_name t))

let parse_col_ref st =
  let first = parse_ident st in
  if peek st = Lexer.DOT then begin
    advance st;
    let column = parse_ident st in
    { table = Some first; column }
  end
  else { table = None; column = first }

let parse_scalar st =
  match peek st with
  | Lexer.INT i ->
      advance st;
      Lit (Relalg.Value.Int i)
  | Lexer.FLOAT f ->
      advance st;
      Lit (Relalg.Value.Float f)
  | Lexer.STRING s ->
      advance st;
      Lit (Relalg.Value.Str s)
  | Lexer.NULL ->
      advance st;
      Lit Relalg.Value.Null
  | Lexer.IDENT _ -> Col (parse_col_ref st)
  | t -> fail st (Printf.sprintf "expected a value or column, found %s" (Lexer.token_name t))

let parse_agg st name =
  advance st;
  expect st Lexer.LPAREN;
  let arg =
    if peek st = Lexer.STAR then begin
      advance st;
      None
    end
    else Some (parse_col_ref st)
  in
  expect st Lexer.RPAREN;
  match name, arg with
  | `Count, None -> Count_star
  | `Count, Some c -> Count c
  | `Max, Some c -> Max c
  | `Min, Some c -> Min c
  | `Sum, Some c -> Sum c
  | `Avg, Some c -> Avg c
  | (`Max | `Min | `Sum | `Avg), None ->
      fail st "only COUNT accepts '*' as argument"

let parse_select_item st =
  match peek st with
  | Lexer.STAR ->
      advance st;
      Sel_star
  | Lexer.COUNT -> Sel_agg (parse_agg st `Count)
  | Lexer.MAX -> Sel_agg (parse_agg st `Max)
  | Lexer.MIN -> Sel_agg (parse_agg st `Min)
  | Lexer.SUM -> Sel_agg (parse_agg st `Sum)
  | Lexer.AVG -> Sel_agg (parse_agg st `Avg)
  | Lexer.IDENT _ -> Sel_col (parse_col_ref st)
  | t ->
      fail st
        (Printf.sprintf "expected a select item, found %s" (Lexer.token_name t))

let rec parse_comma_list st parse_one =
  let first = parse_one st in
  if peek st = Lexer.COMMA then begin
    advance st;
    first :: parse_comma_list st parse_one
  end
  else [ first ]

let parse_from_item st =
  let rel = parse_ident st in
  match peek st with
  | Lexer.AS ->
      advance st;
      { rel; alias = Some (parse_ident st) }
  | Lexer.IDENT _ -> { rel; alias = Some (parse_ident st) }
  | _ -> { rel; alias = None }

let parse_cmp st =
  let op =
    match peek st with
    | Lexer.EQ -> Eq
    | Lexer.NE -> Ne
    | Lexer.EQ_NULL -> Eq_null
    | Lexer.LT -> Lt
    | Lexer.LE -> Le
    | Lexer.GT -> Gt
    | Lexer.GE -> Ge
    | t -> fail st (Printf.sprintf "expected a comparison, found %s" (Lexer.token_name t))
  in
  advance st;
  op

(* Position of the next unconsumed token, as an AST position.  The end of a
   block's span is the position where parsing of the block stopped (the
   first token after it), so spans are start-inclusive / end-exclusive. *)
let ast_pos st : Ast.pos =
  let p = pos st in
  { Ast.line = p.Lexer.line; col = p.Lexer.col }

let rec parse_query st =
  let sp_start = ast_pos st in
  let q = parse_query_body st in
  { q with Ast.span = { Ast.sp_start; sp_end = ast_pos st } }

and parse_query_body st =
  expect st Lexer.SELECT;
  let distinct =
    if peek st = Lexer.DISTINCT then begin
      advance st;
      true
    end
    else false
  in
  let select = parse_comma_list st parse_select_item in
  expect st Lexer.FROM;
  let from = parse_comma_list st parse_from_item in
  let where =
    if peek st = Lexer.WHERE then begin
      advance st;
      parse_conjunction st
    end
    else []
  in
  let group_by =
    if peek st = Lexer.GROUP then begin
      advance st;
      expect st Lexer.BY;
      parse_comma_list st parse_col_ref
    end
    else []
  in
  let order_by =
    if peek st = Lexer.ORDER then begin
      advance st;
      expect st Lexer.BY;
      parse_comma_list st (fun st ->
          let c = parse_col_ref st in
          match peek st with
          | Lexer.ASC ->
              advance st;
              (c, Asc)
          | Lexer.DESC ->
              advance st;
              (c, Desc)
          | _ -> (c, Asc))
    end
    else []
  in
  { distinct; select; from; where; group_by; order_by; span = no_span }

and parse_conjunction st =
  let first = parse_predicate st in
  match peek st with
  | Lexer.AND ->
      advance st;
      first :: parse_conjunction st
  | Lexer.OR ->
      fail st
        "OR is not supported: the unnesting algorithms are defined for \
         conjunctive WHERE clauses"
  | _ -> [ first ]

and parse_subquery st =
  expect st Lexer.LPAREN;
  let q = parse_query st in
  expect st Lexer.RPAREN;
  q

and parse_predicate st =
  match peek st with
  | Lexer.EXISTS ->
      advance st;
      Exists (parse_subquery st)
  | Lexer.NOT when peek2 st = Lexer.EXISTS ->
      advance st;
      advance st;
      Not_exists (parse_subquery st)
  | _ -> (
      let lhs = parse_scalar st in
      match peek st with
      | Lexer.IS when peek2 st = Lexer.IN ->
          advance st;
          advance st;
          In_subq (lhs, parse_subquery st)
      | Lexer.IS when peek2 st = Lexer.NOT ->
          (* IS NOT IN *)
          advance st;
          advance st;
          expect st Lexer.IN;
          Not_in_subq (lhs, parse_subquery st)
      | Lexer.IN ->
          advance st;
          In_subq (lhs, parse_subquery st)
      | Lexer.NOT ->
          advance st;
          expect st Lexer.IN;
          Not_in_subq (lhs, parse_subquery st)
      | _ -> (
          let op = parse_cmp st in
          match peek st with
          | Lexer.ANY ->
              advance st;
              Quant (lhs, op, Any, parse_subquery st)
          | Lexer.ALL ->
              advance st;
              Quant (lhs, op, All, parse_subquery st)
          | Lexer.LPAREN when peek2 st = Lexer.SELECT ->
              Cmp_subq (lhs, op, parse_subquery st)
          | _ -> Cmp (lhs, op, parse_scalar st)))

let parse_exn src =
  let st = { toks = Lexer.tokenize src } in
  let q = parse_query st in
  if peek st = Lexer.SEMI then advance st;
  (match peek st with
  | Lexer.EOF -> ()
  | t -> fail st (Printf.sprintf "trailing input: %s" (Lexer.token_name t)));
  q

(* Parse a whole file: any number of queries separated (and optionally
   terminated) by ';'.  Used by [nestsql lint] over query corpora. *)
let parse_many_exn src =
  let st = { toks = Lexer.tokenize src } in
  let rec go acc =
    match peek st with
    | Lexer.EOF -> List.rev acc
    | _ ->
        let q = parse_query st in
        (match peek st with
        | Lexer.SEMI -> advance st
        | Lexer.EOF -> ()
        | t ->
            fail st
              (Printf.sprintf "expected ';' or end of input, found %s"
                 (Lexer.token_name t)));
        go (q :: acc)
  in
  go []

let wrap_errors f src =
  match f src with
  | q -> Ok q
  | exception Error (p, msg) ->
      Error (Printf.sprintf "parse error at line %d, column %d: %s" p.line p.col msg)
  | exception Lexer.Error (p, msg) ->
      Error (Printf.sprintf "lexical error at line %d, column %d: %s" p.line p.col msg)

let parse src = wrap_errors parse_exn src

