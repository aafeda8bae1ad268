let dead x = x + 1
let called x = dead x * 2
