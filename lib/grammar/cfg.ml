type symbol = T of string | N of string

type production = { id : int; lhs : string; rhs : symbol list }

type t = {
  start : string;
  productions : production array;
  nonterminals : string list;
  terminals : string list;
}

type error =
  | Parse_error of Bnf.error
  | Undefined_start of string
  | Empty_grammar

let pp_error fmt = function
  | Parse_error e -> Bnf.pp_error fmt e
  | Undefined_start s -> Format.fprintf fmt "start symbol %s has no rule" s
  | Empty_grammar -> Format.fprintf fmt "grammar has no rules"

let symbol_name = function T s -> s | N s -> s
let pp_symbol fmt = function
  | T s -> Format.fprintf fmt "%s" s
  | N s -> Format.fprintf fmt "<%s>" s

let of_bnf ~start rules =
  if rules = [] then Error Empty_grammar
  else begin
    (* hashed membership: a grammar has hundreds of nonterminals and
       terminals and tens of thousands of right-hand-side symbols *)
    let nt_set = Hashtbl.create 256 in
    let nonterminals =
      List.filter_map
        (fun (r : Bnf.rule) ->
          if Hashtbl.mem nt_set r.lhs then None
          else begin
            Hashtbl.add nt_set r.lhs ();
            Some r.lhs
          end)
        rules
    in
    if not (Hashtbl.mem nt_set start) then Error (Undefined_start start)
    else begin
      let seen_terminals = Hashtbl.create 256 in
      let terminals = ref [] in
      let symbol s =
        if Hashtbl.mem nt_set s then N s
        else begin
          if not (Hashtbl.mem seen_terminals s) then begin
            Hashtbl.add seen_terminals s ();
            terminals := s :: !terminals
          end;
          T s
        end
      in
      let productions = ref [] in
      let next_id = ref 0 in
      List.iter
        (fun (r : Bnf.rule) ->
          List.iter
            (fun alt ->
              let rhs = List.map symbol alt in
              productions := { id = !next_id; lhs = r.lhs; rhs } :: !productions;
              incr next_id)
            r.alternatives)
        rules;
      Ok
        {
          start;
          productions = Array.of_list (List.rev !productions);
          nonterminals;
          terminals = List.rev !terminals;
        }
    end
  end

let of_text ~start text =
  match Bnf.parse text with
  | Error e -> Error (Parse_error e)
  | Ok rules -> of_bnf ~start rules

let productions_of t lhs =
  Array.to_list t.productions |> List.filter (fun p -> p.lhs = lhs)

let is_nonterminal t s = List.mem s t.nonterminals
let is_terminal t s = List.mem s t.terminals
let api_count t = List.length t.terminals
