(* Request shorthands for the suites: every synthesis goes through
   [Engine.respond]. *)

module Engine = Dggt_core.Engine

let respond ses mode q = Engine.respond ses { Engine.input = Engine.Text q; mode }
let plain ses q = respond ses Engine.Plain q
let ranked ~k ses q = (respond ses (Engine.Ranked k) q).Engine.ranked
let plain_with cfg target q = plain { Engine.cfg; target } q
